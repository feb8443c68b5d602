package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a call into the layer's public functions.
type span struct {
	name       string
	start, end int64 // ns since the tracer's base
	parent     int32 // index of the enclosing span; -1 for a root; rootOfReq to resolve by req
	req        int64 // request id shared by every span of one request
}

// rootOfReq marks a span recorded on another goroutine (the in-process
// server) whose parent is the root span of its request, resolved at summary
// time.
const rootOfReq = -2

// tracer keeps spans in memory; they are summarised and written out when
// the run ends.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent int, req int64) int {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: now, parent: int32(parent), req: req})
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

func (t *tracer) rename(i int, name string) {
	t.mu.Lock()
	t.spans[i].name = name
	t.mu.Unlock()
}

func (t *tracer) setReq(i int, req int64) {
	t.mu.Lock()
	t.spans[i].req = req
	t.mu.Unlock()
}

// layerStat is the per-layer summary of a traced leg.
type layerStat struct {
	Count    int     `json:"count"`
	MeanUs   float64 `json:"mean_us"`
	SelfUs   float64 `json:"self_mean_us"`
	TotalMs  float64 `json:"total_ms"`
	SelfMs   float64 `json:"self_total_ms"`
	SelfFrac float64 `json:"self_share_of_roots"`
}

// summary computes per-layer duration and self time (duration minus the
// part of it covered by child spans) and, for root spans, the share no
// child layer accounts for.
func (t *tracer) summary() (map[string]*layerStat, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rootOf := map[int64]int32{}
	for i, s := range t.spans {
		if s.parent == -1 && s.req != 0 {
			rootOf[s.req] = int32(i)
		}
	}
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent == rootOfReq {
			if r, ok := rootOf[s.req]; ok {
				s.parent = r
			} else {
				s.parent = -1
			}
		}
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerStat{}
	var rootTotal, rootSelf int64
	for i, s := range t.spans {
		d := s.end - s.start
		self := d - child[i]
		st := out[s.name]
		if st == nil {
			st = &layerStat{}
			out[s.name] = st
		}
		st.Count++
		st.TotalMs += float64(d) / 1e6
		st.SelfMs += float64(self) / 1e6
		if s.parent == -1 {
			rootTotal += d
			rootSelf += self
		}
	}
	for _, st := range out {
		st.MeanUs = st.TotalMs * 1e3 / float64(st.Count)
		st.SelfUs = st.SelfMs * 1e3 / float64(st.Count)
		if rootTotal > 0 {
			st.SelfFrac = st.SelfMs * 1e6 / float64(rootTotal)
		}
	}
	return out, ratio(float64(rootSelf), float64(rootTotal))
}

// dump writes every span as gzip-compressed CSV:
// index,name,start_ns,end_ns,parent,req.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "index,name,start_ns,end_ns,parent,req")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, s.name, s.start, s.end, s.parent, s.req)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// sortedNames returns the layer names of a summary in a stable order.
func sortedNames(m map[string]*layerStat) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
