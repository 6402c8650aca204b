// Async jobs: the third result-path shape. A job is a compare whose
// lifetime is decoupled from any HTTP request — POST /jobs enqueues it
// and returns immediately with an id; GET /jobs/{id} polls state and
// progress; GET /jobs/{id}/result streams the accumulated (possibly
// still growing) m8, following the job live until it finishes; DELETE
// /jobs/{id} cancels and discards it.
//
// Jobs wait for engine capacity by blocking on the worker semaphore
// rather than passing admission control: where an interactive compare
// must be refused fast under overload (429), a job's whole point is to
// absorb that wait. Its bound is the job registry itself — at most
// Config.MaxJobs records exist at once (queued, running, or finished
// and holding a result), and creation past the bound is refused.
//
// A job's result buffer is append-only; result followers snapshot the
// tail under the job lock and wait on a condition variable that every
// append and the final state change broadcast. A follower therefore
// streams exactly the bytes a buffered compare would have produced, in
// order, and its trailer (X-Scoris-Status) reports how the job ended:
// complete, cancelled, or error.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/align"
	"repro/internal/tabular"
)

type jobState string

const (
	jobQueued    jobState = "queued"
	jobRunning   jobState = "running"
	jobDone      jobState = "done"
	jobFailed    jobState = "failed"
	jobCancelled jobState = "cancelled"
)

// terminal reports whether the state is final.
func (st jobState) terminal() bool {
	return st == jobDone || st == jobFailed || st == jobCancelled
}

type job struct {
	id     string
	req    compareRequest
	cancel context.CancelFunc

	mu   sync.Mutex
	cond *sync.Cond // signals buf growth and state changes
	// state advances queued → running → one terminal state; buf is
	// append-only m8 bytes; seqsDone counts emitted query sequences.
	state     jobState
	errMsg    string
	buf       []byte
	seqsDone  int
	seqsTotal int
}

func newJob(id string, req compareRequest, cancel context.CancelFunc, seqsTotal int) *job {
	j := &job{id: id, req: req, cancel: cancel, state: jobQueued, seqsTotal: seqsTotal}
	j.cond = sync.NewCond(&j.mu)
	return j
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = jobRunning
	j.cond.Broadcast()
	j.mu.Unlock()
}

// append adds one emitted group and ticks progress.
func (j *job) append(m8 []byte) {
	j.mu.Lock()
	j.buf = append(j.buf, m8...)
	j.seqsDone++
	j.cond.Broadcast()
	j.mu.Unlock()
}

// jobStatus is the poll/list payload.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	DB        string `json:"db"`
	Query     string `json:"query"`
	Engine    string `json:"engine"`
	SeqsDone  int    `json:"seqs_done"`
	SeqsTotal int    `json:"seqs_total"`
	Bytes     int    `json:"bytes"`
	Error     string `json:"error,omitempty"`
}

func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatus{
		ID: j.id, State: string(j.state),
		DB: j.req.DB, Query: j.req.Query, Engine: engineName(j.req.Engine),
		SeqsDone: j.seqsDone, SeqsTotal: j.seqsTotal,
		Bytes: len(j.buf), Error: j.errMsg,
	}
}

// finishJob seals a job and counts it. It is called exactly once, from
// the job's own goroutine — cancellation reaches it as the engine's
// ctx error, so a cancel racing completion resolves to whichever
// happened first inside the engine, never to two terminal states.
func (s *Server) finishJob(j *job, state jobState, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.cond.Broadcast()
	j.mu.Unlock()
	switch state {
	case jobDone:
		s.jobsCompleted.Add(1)
	case jobCancelled:
		s.jobsCancelled.Add(1)
	case jobFailed:
		s.jobsFailed.Add(1)
	}
}

// runJob is the job goroutine and the job sink: wait (indefinitely) for
// a worker slot, run the compare with a sink that appends to the job
// buffer, seal the job.
func (s *Server) runJob(ctx context.Context, j *job, c *compareCall) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.finishJob(j, jobCancelled, "cancelled while queued")
		return
	}
	defer func() { <-s.sem }()
	s.admissions.Add(1)
	j.setRunning()
	err := s.run(ctx, c, func(_ int, g []align.Alignment) error {
		// No backpressure here: the job buffer is the consumer, and
		// its bound is MaxJobs × result size, paid knowingly. Empty
		// groups are appended too: they tick seqs_done.
		j.append(tabular.AppendGroup(nil, g, c.db, c.queries[0]))
		return nil
	})
	switch {
	case err == nil:
		s.finishJob(j, jobDone, "")
	case errors.Is(err, context.Canceled):
		s.finishJob(j, jobCancelled, "cancelled")
	default:
		s.finishJob(j, jobFailed, err.Error())
	}
}

// jobShape is POST /jobs's body: a single compare, m8, never streamed.
func jobShape(body []byte, _ string) (compareRequest, []string, error) {
	req, names, err := singleShape(body, "")
	switch {
	case err != nil:
	case req.Stream:
		err = errors.New("jobs have no stream mode; GET /jobs/{id}/result streams")
	case req.Format == "json":
		err = errors.New("job results are m8-only")
	}
	return req, names, err
}

// handleJobs serves the /jobs collection: POST creates, GET lists.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.jobMu.Lock()
		list := make([]jobStatus, 0, len(s.jobs))
		for _, j := range s.jobs {
			list = append(list, j.status())
		}
		s.jobMu.Unlock()
		// The registry is a map: sort by id so the listing is
		// byte-deterministic.
		sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(list)
	case http.MethodPost:
		c := s.resolveCompare(w, r, jobShape)
		if c == nil {
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		id := fmt.Sprintf("j%d", s.jobSeq.Add(1))
		j := newJob(id, c.req, cancel, c.queries[0].NumSeqs())
		s.jobMu.Lock()
		if len(s.jobs) >= s.cfg.MaxJobs {
			s.jobMu.Unlock()
			cancel()
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests,
				"job registry full (%d jobs); DELETE finished jobs or raise MaxJobs", s.cfg.MaxJobs)
			return
		}
		s.jobs[id] = j
		s.jobMu.Unlock()
		s.jobsCreated.Add(1)
		// background: tracked in s.jobs (bounded by MaxJobs) until a
		// terminal state; cancellable via ctx from DELETE /jobs/{id}.
		go s.runJob(ctx, j, c)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(j.status())
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// handleJob serves one job: GET /jobs/{id} (status), GET
// /jobs/{id}/result (streamed m8), DELETE /jobs/{id} (cancel+discard).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, tail, _ := strings.Cut(rest, "/")
	if id == "" || (tail != "" && tail != "result") {
		httpError(w, http.StatusNotFound, "unknown job path %q", r.URL.Path)
		return
	}
	s.jobMu.Lock()
	j, ok := s.jobs[id]
	s.jobMu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	switch {
	case r.Method == http.MethodGet && tail == "result":
		s.serveJobResult(w, r, j)
	case r.Method == http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(j.status())
	case r.Method == http.MethodDelete && tail == "":
		// Cancel reaches a running engine through its ctx; the job
		// goroutine seals the state (and the counters) on its way out.
		// The record is dropped now, so the id is immediately reusable
		// capacity — followers already attached keep following the
		// orphaned record until the goroutine seals it.
		j.cancel()
		s.jobMu.Lock()
		delete(s.jobs, id)
		s.jobMu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"deleted": id})
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}

// serveJobResult streams a job's m8 bytes, following a live job until
// it reaches a terminal state. The X-Scoris-Status trailer reports how
// the job ended; a cancelled or failed job's partial bytes are served,
// sealed with a non-"complete" trailer.
func (s *Server) serveJobResult(w http.ResponseWriter, r *http.Request, j *job) {
	flusher, _ := w.(http.Flusher)
	writeStreamHeader(w)
	// Push the headers out now: a follower of a quiet job should see
	// its response open immediately, not at the first m8 byte.
	if flusher != nil {
		flusher.Flush()
	}

	// A follower blocked in cond.Wait cannot see its client vanish;
	// this broadcast (taking the lock, so it cannot slide between a
	// follower's ctx check and its Wait) wakes every waiter to re-check.
	stop := context.AfterFunc(r.Context(), func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	served := 0
	for {
		j.mu.Lock()
		for len(j.buf) == served && !j.state.terminal() && r.Context().Err() == nil {
			j.cond.Wait()
		}
		chunk := j.buf[served:] // append-only: a snapshot slice stays valid
		state := j.state
		j.mu.Unlock()
		if r.Context().Err() != nil {
			s.abandoned.Add(1)
			return
		}
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			served += len(chunk)
		}
		if state.terminal() {
			switch state {
			case jobDone:
				w.Header().Set(streamStatusTrailer, streamStatusComplete)
			case jobCancelled:
				w.Header().Set(streamStatusTrailer, "cancelled")
			default:
				w.Header().Set(streamStatusTrailer, "error")
			}
			return
		}
	}
}

// jobStats assembles the /stats job section.
func (s *Server) jobStats() JobStats {
	st := JobStats{
		Created:   s.jobsCreated.Load(),
		Completed: s.jobsCompleted.Load(),
		Failed:    s.jobsFailed.Load(),
		Cancelled: s.jobsCancelled.Load(),
	}
	s.jobMu.Lock()
	st.Held = len(s.jobs)
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.state {
		case jobQueued:
			st.Queued++
		case jobRunning:
			st.Running++
		}
		j.mu.Unlock()
	}
	s.jobMu.Unlock()
	return st
}
