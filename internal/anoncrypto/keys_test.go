package anoncrypto

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestKeyPairForMemoised(t *testing.T) {
	a, err := KeyPairFor("n0", DefaultKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KeyPairFor("n0", DefaultKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same (id, bits) returned two different *KeyPair")
	}
	if a.ID != "n0" {
		t.Fatalf("ID = %q, want n0", a.ID)
	}
}

// TestKeyPairForGolden pins the derivation: a change to the stream, the
// candidate shaping or the retry order changes every simulated key.
func TestKeyPairForGolden(t *testing.T) {
	kp, err := KeyPairFor("n0", 512)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(kp.Private.N.Bytes())
	const want = "bf9d14ca77080a31f2eeb50580e93cc8d8ea1288f20c3eb34e0ebc310efc0e55"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("SHA-256(N) for (n0, 512) = %s, want %s", got, want)
	}
}

func TestKeyPairForDistinctValidKeys(t *testing.T) {
	type in struct {
		id   Identity
		bits int
	}
	ins := []in{{"n0", 512}, {"n1", 512}, {"c0000", 512}, {"n0", 768}, {"n0", 1024}}
	moduli := map[string]in{}
	for _, x := range ins {
		kp, err := KeyPairFor(x.id, x.bits)
		if err != nil {
			t.Fatalf("KeyPairFor(%q, %d): %v", x.id, x.bits, err)
		}
		if n := kp.Private.N.BitLen(); n != x.bits {
			t.Fatalf("KeyPairFor(%q, %d): modulus has %d bits", x.id, x.bits, n)
		}
		if err := kp.Private.Validate(); err != nil {
			t.Fatalf("KeyPairFor(%q, %d): Validate: %v", x.id, x.bits, err)
		}
		if prev, dup := moduli[kp.Private.N.String()]; dup {
			t.Fatalf("%v and %v share a modulus", prev, x)
		}
		moduli[kp.Private.N.String()] = x
		if x.bits != 512 {
			continue
		}
		msg := []byte("seal/open " + string(x.id))
		ct, err := rsa.EncryptPKCS1v15(rand.Reader, kp.Public(), msg)
		if err != nil {
			t.Fatalf("seal under %q: %v", x.id, err)
		}
		pt, err := rsa.DecryptPKCS1v15(nil, kp.Private, ct)
		if err != nil || string(pt) != string(msg) {
			t.Fatalf("open under %q = %q, %v; want %q", x.id, pt, err, msg)
		}
	}
}

// freshIDs names keys no earlier test (or -count repetition) asked for.
var freshIDs atomic.Int64

func TestKeyPairForConcurrentDerivesOnce(t *testing.T) {
	id := Identity(fmt.Sprintf("fresh%d", freshIDs.Add(1)))
	before := derivations.Load()
	const callers = 16
	got := make([]*KeyPair, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = KeyPairFor(id, DefaultKeyBits)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different *KeyPair", i)
		}
	}
	if n := derivations.Load() - before; n != 1 {
		t.Fatalf("%d callers caused %d derivations, want 1", callers, n)
	}
}

// TestNoPerCallKeyGeneration keeps random per-node key generation from
// creeping back: outside the CA (whose tests rely on two CAs holding
// different keys), no non-test file in the module may call
// rsa.GenerateKey or rsa.GenerateMultiPrimeKey; node and client keys come
// from KeyPairFor.
func TestNoPerCallKeyGeneration(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(mod), "module anongeo\n") {
		t.Fatalf("module root %s not found (go.mod: %v)", root, err)
	}
	allowed := filepath.Join(root, "internal", "anoncrypto", "ca.go")
	fset := token.NewFileSet()
	scanned := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module is not this module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == allowed {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		scanned++
		rsaName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "crypto/rsa" {
				rsaName = "rsa"
				if imp.Name != nil {
					rsaName = imp.Name.Name
				}
			}
		}
		if rsaName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == rsaName &&
				(sel.Sel.Name == "GenerateKey" || sel.Sel.Name == "GenerateMultiPrimeKey") {
				t.Errorf("%s: rsa.%s outside ca.go; derive node and client keys with KeyPairFor",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d files under %s; the walk is broken", scanned, root)
	}
}

var benchKey *KeyPair

// BenchmarkKeyPairFor reports the per-key cost at the paper's 512 bits:
// cold derives a key outside the pool (cycling over 64 identities, so
// ns/op averages their differing prime searches), warm is a pool hit.
func BenchmarkKeyPairFor(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kp, err := deriveKeyPair(Identity(fmt.Sprintf("c%04d", i%64)), DefaultKeyBits)
			if err != nil {
				b.Fatal(err)
			}
			benchKey = kp
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := KeyPairFor("n0", DefaultKeyBits); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kp, err := KeyPairFor("n0", DefaultKeyBits)
			if err != nil {
				b.Fatal(err)
			}
			benchKey = kp
		}
	})
}
