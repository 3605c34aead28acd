package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"memories/internal/service"
	"memories/internal/tracefile"
)

// sessionID names the one session of trace-ingest.
const sessionID = "bench"

// The session and its traffic follow cmd/memloadgen's defaults, the
// repository's own load for memoriesd: 256 records per POST into a
// 64 KB, 2-way session with 64 B lines over eight CPUs.
const (
	ingestBlockRecs = 256
	ingestCache     = "64KB"
	ingestCacheB    = 64 << 10
	ingestAssoc     = 2
	ingestLineBytes = 64
	// ingestWarmPosts is how many blocks set-up POSTs before timing: 50
	// times the 1024 lines of the cache, and enough to bring the
	// connection and the session worker into their steady state.
	ingestWarmPosts = 200
)

// traceIngest is the memoriesd path: an in-process service.Server on a
// loopback listener, fed by one closed-loop client that POSTs one v2
// block at a time and polls the session's stats until it is applied.
type traceIngest struct {
	srv    *service.Server
	client *http.Client
	base   string
	seed   uint64
	recs   int      // records in the stream
	bodies [][]byte // one v2 trace of one block per POST
	sizes  []uint64 // records in each body
	next   int      // next body to POST

	posted   uint64 // records POSTed and accepted, warm-up included
	posts    uint64
	rejected uint64 // POSTs answered other than 202
	applied  uint64 // the session's ingested count at the last poll

	// The session's enqueue-to-applied time and the records POSTed, read
	// when the timed phase starts and ends.
	wait0, wait1     uint64
	posted0, posted1 uint64
}

func setupTraceIngest(o options) (runner, error) {
	r := &traceIngest{seed: o.seed, recs: o.scale.traceRecs}
	blockRecs := min(ingestBlockRecs, o.scale.traceRecs)
	var cur []tracefile.Record
	seal := func() error {
		var buf bytes.Buffer
		w, err := tracefile.NewV2WriterBlock(&buf, blockRecs)
		if err != nil {
			return err
		}
		for _, rec := range cur {
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		r.bodies = append(r.bodies, buf.Bytes())
		r.sizes = append(r.sizes, uint64(len(cur)))
		cur = cur[:0]
		return nil
	}
	err := genStream(o.seed, o.scale.traceRecs, func(rec tracefile.Record) error {
		cur = append(cur, rec)
		if len(cur) == blockRecs {
			return seal()
		}
		return nil
	})
	if err == nil && len(cur) > 0 {
		err = seal()
	}
	if err != nil {
		return nil, err
	}

	r.srv = service.New(service.Config{MaxSessions: 1})
	if err := r.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	r.base = "http://" + r.srv.Addr()
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	create := fmt.Sprintf(`{"id":%q,"cache":%q,"assoc":%d,"line_bytes":%d,"cpus":8}`,
		sessionID, ingestCache, ingestAssoc, ingestLineBytes)
	if err := r.do("POST", "/sessions", strings.NewReader(create), http.StatusCreated, nil); err != nil {
		r.close()
		return nil, err
	}
	for i := 0; i < o.scale.ingestWarm; i++ {
		if err := r.post(); err != nil {
			r.close()
			return nil, err
		}
		if err := r.waitApplied(); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// do sends one request and decodes a JSON reply into out (if non-nil).
func (r *traceIngest) do(method, path string, body io.Reader, want int, out any) error {
	req, err := http.NewRequest(method, r.base+path, body)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// post sends the next block of the stream.
func (r *traceIngest) post() error {
	i := r.next
	r.next = (r.next + 1) % len(r.bodies)
	r.posts++
	if err := r.do("POST", "/sessions/"+sessionID+"/trace", bytes.NewReader(r.bodies[i]), http.StatusAccepted, nil); err != nil {
		r.rejected++
		return err
	}
	r.posted += r.sizes[i]
	return nil
}

// waitApplied polls the session's stats until everything POSTed has
// been applied to the board.
func (r *traceIngest) waitApplied() error {
	for r.applied < r.posted {
		st, err := r.stats()
		if err != nil {
			return err
		}
		r.applied = st.Ingested
	}
	return nil
}

func (r *traceIngest) stats() (service.StatsResponse, error) {
	var st service.StatsResponse
	err := r.do("GET", "/sessions/"+sessionID+"/stats", nil, http.StatusOK, &st)
	return st, err
}

func (r *traceIngest) run(tr *tracer, stop func() bool, done func(uint64)) error {
	r.wait0, r.posted0 = r.waitSum(), r.posted
	defer func() { r.wait1, r.posted1 = r.waitSum(), r.posted }()
	for !stop() {
		before := r.posted
		if tr.on() {
			tr.begin(lPost)
			err := r.post()
			tr.end()
			if err != nil {
				return err
			}
			tr.begin(lApplyWait)
			err = r.waitApplied()
			tr.end()
			if err != nil {
				return err
			}
		} else {
			if err := r.post(); err != nil {
				return err
			}
			if err := r.waitApplied(); err != nil {
				return err
			}
		}
		done(r.posted - before)
	}
	return nil
}

// waitSum reads the total of the session's enqueue-to-applied histogram.
func (r *traceIngest) waitSum() uint64 {
	for _, h := range r.srv.Registry().Snapshot().Hists {
		if h.Name == "session."+sessionID+".ingest.wait_ns" {
			return h.Sum
		}
	}
	return 0
}

// registry reads one of the session board's counters from the server's
// metrics registry.
func (r *traceIngest) registry(name string) uint64 {
	return r.srv.Registry().Snapshot().Value("session." + sessionID + "." + name)
}

func (r *traceIngest) counts() map[string]float64 {
	m := map[string]float64{
		"service.posts":          float64(r.posts),
		"core.accepted":          float64(r.registry("filter.accepted")),
		"core.filtered":          float64(filtered(r.registry)),
		"core.retry_posted":      float64(r.registry("buffer.retry-posted")),
		"core.buffer_high_water": float64(r.registry("buffer.high-water")),
	}
	if st, err := r.stats(); err == nil {
		m["service.rejected"] = float64(st.Rejected)
		if len(st.Nodes) > 0 {
			m["core.a.miss_ratio"] = st.Nodes[0].MissRatio
		}
	}
	return m
}

func (r *traceIngest) layers(tr *tracer, refs uint64) map[string]float64 {
	m := map[string]float64{}
	if n := tr.calls[lPost]; n > 0 {
		m["service.post_ms"] = tr.estimate(lPost) / float64(n) / 1e6
		m["service.apply_wait_ms"] = tr.estimate(lApplyWait) / float64(n) / 1e6
	}
	// The server's own enqueue-to-applied time per record, over the
	// blocks of the timed phase: queue wait plus the session worker's
	// SnoopBatch and Flush.
	if n := r.posted1 - r.posted0; n > 0 {
		m["service.apply_ns_per_rec"] = float64(r.wait1-r.wait0) / float64(n)
	}
	return m
}

func (r *traceIngest) check() []check {
	st, err := r.stats()
	if err != nil {
		return []check{{name: "session stats", detail: err.Error()}}
	}
	cs := []check{
		checkEq("POSTed records = session ingested", st.Ingested, r.posted),
		checkEq("POSTed records = session accepted", st.Accepted, r.posted),
		checkEq("POSTs refused", r.rejected, 0),
		checkEq("service.rejected", st.Rejected, 0),
		checkEq("core.retry_posted", r.registry("buffer.retry-posted"), 0),
		checkEq("board accepted + filtered = ingested", r.registry("filter.accepted")+filtered(r.registry), st.Ingested),
	}
	if len(st.Nodes) != 1 {
		return append(cs, check{name: "session nodes", detail: fmt.Sprintf("%d nodes, want 1", len(st.Nodes))})
	}
	stream, err := packedStream(r.seed, r.recs)
	if err != nil {
		return append(cs, check{name: "regenerate stream", detail: err.Error()})
	}
	m := newRefModel(ingestCacheB, ingestLineBytes, ingestAssoc)
	feedModel(m, stream, r.posted)
	n := st.Nodes[0]
	got := nodeCounts{ReadHit: n.ReadHit, ReadMiss: n.ReadMiss, WriteHit: n.WriteHit, WriteMiss: n.WriteMiss}
	return append(cs, compareNode("session node", got, m.counts, map[string]bool{
		"castout hits": true, "castout misses": true, "evictions": true, "resident lines": true,
	})...)
}

func (r *traceIngest) close() {
	if r.srv == nil {
		return
	}
	_ = r.do("DELETE", "/sessions/"+sessionID, nil, http.StatusOK, nil)
	_ = r.srv.Close()
	r.client.CloseIdleConnections()
	r.srv = nil
}
