package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a georep layer, recorded by the benchmark
// around the public entry point it calls. Group ties the spans of one
// epoch (or one client operation) together; Parent is the index of the
// enclosing span in the same recorder, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Group  int64  `json:"group"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spans is an in-memory span recorder. A nil *spans records nothing and
// costs one nil check per call, which is how the untraced runs use it.
// One recorder belongs to one goroutine.
type spans struct {
	base time.Time
	list []span
}

func newSpans() *spans { return &spans{base: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *spans) begin(name string, group int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.list = append(t.list, span{Name: name, Group: group, Parent: parent, Start: int64(time.Since(t.base))})
	return int32(len(t.list) - 1)
}

func (t *spans) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.list[id].End = int64(time.Since(t.base))
}

// merge appends another recorder's spans, rebasing their times and
// parent indexes onto this recorder.
func (t *spans) merge(o *spans) {
	shift := int64(o.base.Sub(t.base))
	off := int32(len(t.list))
	for _, s := range o.list {
		s.Start += shift
		s.End += shift
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.list = append(t.list, s)
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by the union of its children's intervals. Children
// may overlap each other; covered time is counted once.
func selfTimes(list []span) []int64 {
	children := make(map[int32][]span)
	for _, s := range list {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(list))
	for i, s := range list {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		self[i] = s.dur() - covered
	}
	return self
}

// durationsOf collects the durations (ns) of every span with the name.
func durationsOf(list []span, name string) []float64 {
	var out []float64
	for _, s := range list {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// groupSelfSums sums, per group, the self time of the spans with the
// given names: the blocking-path total of one epoch or operation.
func groupSelfSums(list []span, self []int64, names ...string) []float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	sums := make(map[int64]int64)
	for i, s := range list {
		if want[s.Name] {
			sums[s.Group] += self[i]
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, float64(v))
	}
	return out
}

// writeSpans writes at most limit spans as JSON lines.
func writeSpans(path string, list []span, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range list {
		if i == limit {
			break
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
