package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"sqlancerpp"
)

// Span is one timed call into a layer, recorded by the traced run.
type Span struct {
	ID     int
	Parent int // -1 for a root span
	Name   string
	Unit   int // the case or request the span belongs to
	Start  time.Duration
	End    time.Duration
}

// spanRec is a span as the tracer stores it: pointer-free, in memory
// mapped outside the Go heap. Spans kept on the heap would grow the live
// heap the collector paces itself by, and this system spends about a
// third of its CPU in GC: the traced run would collect less often than
// the untraced one it is compared with, and read faster.
type spanRec struct {
	start, end   int64 // ns since the tracer's epoch
	parent, unit int32
	name         uint16
	_            [6]byte
}

const (
	chunkSpans = 1 << 15 // records per mapped chunk (1 MiB)
	chunkBytes = chunkSpans * int(unsafe.Sizeof(spanRec{}))
)

// spanNames interns every span name the replay records; the table is
// built once, before any tracer runs, and only read afterwards.
var spanNames, spanIDs = func() ([]string, map[string]uint16) {
	names := []string{spanNew, spanEpochSetup, spanEngineOpen, spanGenSetup, spanGenCase, spanGenQuery,
		spanSetupExec, spanSmokeExec, spanRecord, spanLoad, spanSave, spanPrioritize, spanReduce, spanReplay}
	for _, o := range sqlancerpp.Oracles() {
		names = append(names, spanCheckPrefix+o)
	}
	ids := map[string]uint16{}
	for i, n := range names {
		ids[n] = uint16(i)
	}
	return names, ids
}()

// Tracer records spans for one goroutine: spans nest by call order, so
// the parent of a new span is the innermost open one. Spans stay in
// memory until the run reads them out; Close releases that memory.
type Tracer struct {
	epoch  time.Time
	mems   [][]byte    // mapped chunks, for Close
	chunks [][]spanRec // the same memory, as records
	n      int
	open   []int32
	unit   int32
}

func newTracer(epoch time.Time) *Tracer { return &Tracer{epoch: epoch} }

// SetUnit tags the spans that follow with a case or request number.
func (t *Tracer) SetUnit(u int) { t.unit = int32(u) }

// Begin opens a span and returns its handle for End.
func (t *Tracer) Begin(name string) int {
	id, ok := spanIDs[name]
	if !ok {
		panic("campaignbench: unregistered span name " + name)
	}
	if t.n == len(t.chunks)*chunkSpans {
		t.grow()
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := t.n
	t.n++
	*t.rec(i) = spanRec{start: int64(time.Since(t.epoch)), parent: parent, unit: t.unit, name: id}
	t.open = append(t.open, int32(i))
	return i
}

// End closes the innermost open span, which must be id.
func (t *Tracer) End(id int) {
	t.rec(id).end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

func (t *Tracer) rec(i int) *spanRec { return &t.chunks[i/chunkSpans][i%chunkSpans] }

// grow maps one more chunk of records. Where mapping fails it falls back
// to the heap, which only skews GC pacing.
func (t *Tracer) grow() {
	mem, err := syscall.Mmap(-1, 0, chunkBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.chunks = append(t.chunks, make([]spanRec, chunkSpans))
		return
	}
	t.mems = append(t.mems, mem)
	t.chunks = append(t.chunks, unsafe.Slice((*spanRec)(unsafe.Pointer(&mem[0])), chunkSpans))
}

// Close releases the tracer's mapped memory; its spans are gone after.
func (t *Tracer) Close() {
	for _, m := range t.mems {
		_ = syscall.Munmap(m) // nothing useful to do if unmapping fails
	}
	t.mems, t.chunks, t.n = nil, nil, 0
}

// mergeSpans copies several tracers' spans onto the heap, renumbering IDs
// so they stay unique and parents stay attached.
func mergeSpans(tracers ...*Tracer) []Span {
	var out []Span
	for _, t := range tracers {
		base := len(out)
		for i := 0; i < t.n; i++ {
			r := t.rec(i)
			parent := -1
			if r.parent >= 0 {
				parent = base + int(r.parent)
			}
			out = append(out, Span{ID: base + i, Parent: parent, Name: spanNames[r.name], Unit: int(r.unit),
				Start: time.Duration(r.start), End: time.Duration(r.end)})
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// its child spans cover. Children of one tracer never overlap, so the
// covered part is the sum of their durations.
func selfTimes(spans []Span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count int
	total time.Duration // sum of durations
	self  time.Duration // sum of self times
	durs  []float64     // durations in ms
}

func (s *spanStat) meanUS() float64     { return ratio(float64(s.total)/1e3, float64(s.count)) }
func (s *spanStat) meanSelfUS() float64 { return ratio(float64(s.self)/1e3, float64(s.count)) }

// spanStats aggregates spans by name.
func spanStats(spans []Span) map[string]*spanStat {
	self := selfTimes(spans)
	out := map[string]*spanStat{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.count++
		st.total += s.End - s.Start
		st.self += self[i]
		st.durs = append(st.durs, float64(s.End-s.Start)/1e6)
	}
	return out
}

// stat returns the named aggregate, empty when no span had the name.
func stat(stats map[string]*spanStat, name string) *spanStat {
	if s := stats[name]; s != nil {
		return s
	}
	return &spanStat{}
}

// writeSpans writes the spans, with self times, as CSV to dir/file.
func writeSpans(dir, file string, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	fmt.Fprintln(w, "id,parent,name,unit,start_ns,end_ns,self_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", s.ID, s.Parent, s.Name, s.Unit, s.Start, s.End, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// printSelfTimes prints the self-time table by layer span, largest first.
func printSelfTimes(stats map[string]*spanStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].self > stats[names[j]].self })
	fmt.Println("self time by span:")
	for _, n := range names {
		s := stats[n]
		fmt.Printf("  %-28s %8d spans %10.1f ms self %10.2f us/span\n", n, s.count, float64(s.self)/1e6, s.meanSelfUS())
	}
}
