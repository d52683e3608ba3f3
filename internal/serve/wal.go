package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"anongeo/internal/durable"
)

// The serve daemon's write-ahead log. Every job lifecycle decision is
// committed to an append-only durable.Journal before (admission) or
// immediately after (transitions) it takes effect in memory, so a
// SIGKILL at any instant loses at most the record being written:
//
//	admit  — the normalized request, before the job enters the queue
//	start  — a scheduler worker picked the job up
//	done   — the folded result (points or curves) and cell counts, so
//	         status reads survive restarts without recomputation
//	fail   — terminal failure with the error message
//	cancel — terminal cancellation
//
// On boot the journal is replayed: jobs whose last record is terminal
// are restored read-only (GET /v1/jobs/{id} keeps working), jobs whose
// last record is admit/start are re-admitted to the queue under their
// existing content-address IDs — their completed cells are already in
// the result cache, so the restarted run finishes on cache hits instead
// of recomputing. After replay the journal is compacted to one
// admit(+terminal) pair per live job.

// walOp names a WAL record type.
type walOp string

const (
	walAdmit  walOp = "admit"
	walStart  walOp = "start"
	walDone   walOp = "done"
	walFail   walOp = "fail"
	walCancel walOp = "cancel"
)

// walFileName is the journal file under Options.JournalDir.
const walFileName = "jobs.wal"

// walRecord is one journal entry, JSON-encoded inside the durable
// frame. Fields are per-op: the job's spec on admit, its result and
// cell counts on done, Err on fail/cancel. The embedded spec and result
// encode as flat fields, and an LBS job's lbs_req/curves are omitempty
// additions, so sweep-job records are byte-identical to what pre-LBS
// builds wrote and either build replays the other's journal.
type walRecord struct {
	Op   walOp     `json:"op"`
	ID   string    `json:"id"`
	Time time.Time `json:"time"`

	jobSpec
	Err string `json:"err,omitempty"`
	jobResult
	Cells *CellCounts `json:"cells,omitempty"`
}

// foldWAL replays raw journal payloads into the jobs they describe, in
// first-admit order. Each record drives the lifecycle transition it
// recorded, so a restored job carries the state, result and (condensed)
// event log the live one had; a job the journal leaves unfinished comes
// back queued, for re-admission under its ID. Records that fail to
// decode (version skew from a future or past build — the CRC already
// proved they are not torn) are skipped, as are transitions for jobs
// with no surviving admit record: recovery prefers losing a record to
// inventing state.
func foldWAL(payloads [][]byte) []*Job {
	var order []string
	jobs := make(map[string]*Job)
	for _, p := range payloads {
		var rec walRecord
		if err := json.Unmarshal(p, &rec); err != nil || rec.ID == "" {
			continue
		}
		j := jobs[rec.ID]
		switch {
		case rec.Op == walAdmit && rec.jobSpec != (jobSpec{}):
			if j == nil {
				order = append(order, rec.ID)
			}
			// A re-admit after a failed/canceled attempt restarts the
			// lifecycle under the same ID, exactly like Submit does.
			jobs[rec.ID] = newJob(rec.ID, rec.jobSpec, rec.Time)
		case j == nil:
		case rec.Op == walStart:
			j.transition(JobRunning, "", rec.Time)
		case rec.Op == walDone:
			if !j.state.Terminal() {
				j.result = rec.jobResult
				if rec.Cells != nil {
					j.cells = *rec.Cells
				}
			}
			j.transition(JobDone, "", rec.Time)
		case rec.Op == walFail:
			j.transition(JobFailed, rec.Err, rec.Time)
		case rec.Op == walCancel:
			j.transition(JobCanceled, rec.Err, rec.Time)
		}
	}
	out := make([]*Job, len(order))
	for i, id := range order {
		out[i] = jobs[id]
		if !out[i].state.Terminal() {
			out[i] = newJob(id, out[i].spec, out[i].created)
		}
	}
	return out
}

// snapshotWAL renders the compacted journal for a set of replayed jobs:
// each job's admit record, plus its start and terminal records, with
// spec and result re-emitted verbatim. Replaying the snapshot folds back
// to the same state as replaying the full history.
func snapshotWAL(jobs []*Job) ([][]byte, error) {
	var recs [][]byte
	for _, j := range jobs {
		lifecycle := []walRecord{{Op: walAdmit, ID: j.ID, Time: j.created, jobSpec: j.spec}}
		if !j.started.IsZero() {
			lifecycle = append(lifecycle, walRecord{Op: walStart, ID: j.ID, Time: j.started})
		}
		if j.state.Terminal() {
			lifecycle = append(lifecycle, j.record())
		}
		for _, rec := range lifecycle {
			b, err := json.Marshal(rec)
			if err != nil {
				return nil, err
			}
			recs = append(recs, b)
		}
	}
	return recs, nil
}

// openWAL recovers the journal under dir: replay, compact, reopen. It
// returns the journal handle positioned for appending, the restored jobs,
// and how many raw records the recovery scan accepted.
func openWAL(dir string) (*durable.Journal, []*Job, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal dir: %w", err)
	}
	path := filepath.Join(dir, walFileName)
	j, payloads, err := durable.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	jobs := foldWAL(payloads)
	// Compact: the full history collapses to one snapshot per job, so
	// the journal stays bounded by the job table instead of growing with
	// every restart.
	snap, err := snapshotWAL(jobs)
	if err != nil {
		j.Close()
		return nil, nil, 0, fmt.Errorf("serve: journal compaction: %w", err)
	}
	if err := j.Close(); err != nil {
		return nil, nil, 0, err
	}
	if err := durable.Rewrite(path, snap); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal compaction: %w", err)
	}
	j, _, err = durable.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	return j, jobs, len(payloads), nil
}

// appendWAL commits one record to the journal, if one is configured.
// Journal append failures must not fail jobs — the daemon keeps serving
// with degraded durability — but they are logged and counted.
func (m *Manager) appendWAL(rec walRecord) {
	if m.journal == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err == nil {
		err = m.journal.Append(b)
	}
	if err != nil {
		m.met.journalAppendErrors.Add(1)
		m.opts.Logf("serve: journal append (%s %s): %v", rec.Op, shortID(rec.ID), err)
	}
}
