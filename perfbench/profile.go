package main

// CPU-profile attribution. The traced phase runs under runtime/pprof; the
// profile is decoded here (a minimal reader of the profile.proto fields
// the Go runtime writes) and every sample's CPU time is charged to one
// layer:
//
//   - mem: the sample's leaf is in the runtime's allocator or collector;
//   - sched: the leaf is in the runtime's scheduler (Gosched, parking,
//     spinning for work);
//   - otherwise the innermost frame that belongs to this repository: a
//     ufab/internal/<pkg> frame maps to that package's layer, a frame of
//     the benchmark itself (package main: the seam wrappers, the load
//     generator) to bench;
//   - other: no such frame (the standard library's HTTP stack, syscalls).

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profLayers are the layers self time is attributed to; their sum is the
// profile's total CPU time.
var profLayers = []string{"sim", "sched", "dp", "c", "e", "tel", "audit", "mem", "ctl", "fab", "bench", "other"}

// pkgLayer maps a ufab/internal package to its layer.
var pkgLayer = map[string]string{
	"sim":       "sim",
	"dataplane": "dp",
	"ufabc":     "c", "bloom": "c", "probe": "c",
	"ufabe":     "e",
	"telemetry": "tel",
	"audit":     "audit",
	"ctlplane":  "ctl", "placement": "ctl",
}

// memFuncs and schedFuncs are runtime functions whose presence in a
// sample's leaf runtime frames marks allocator/collector or scheduler time.
var memFuncs = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.growslice", "runtime.makeslice",
	"runtime.makemap", "runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
	"runtime.scanobject", "runtime.markroot", "runtime.bgsweep", "runtime.sweepone",
	"runtime.bgscavenge", "runtime.wbBufFlush", "runtime.gcWriteBarrier", "runtime.(*mheap)",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*sweepLocked)", "runtime.gcStart",
	"runtime.GC",
}

var schedFuncs = []string{
	"runtime.Gosched", "runtime.gosched_m", "runtime.goschedImpl", "runtime.schedule",
	"runtime.findRunnable", "runtime.findrunnable", "runtime.park_m", "runtime.gopark",
	"runtime.mcall", "runtime.stopm", "runtime.notesleep", "runtime.futexsleep",
	"runtime.futex", "runtime.usleep", "runtime.osyield", "runtime.runqgrab",
	"runtime.stealWork", "runtime.wakep", "runtime.startm", "runtime.goready",
	"runtime.ready", "runtime.lock2", "runtime.unlock2", "runtime.procyield",
	"runtime.checkTimers", "runtime.netpoll", "runtime.sysmon",
}

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns CPU nanoseconds per layer.
func (p *cpuProfile) stop() (map[string]int64, error) {
	pprof.StopCPUProfile()
	return attribute(p.buf.Bytes())
}

// layerOf classifies one sample's stack, leaf first.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") {
			break
		}
		for _, m := range memFuncs {
			if strings.HasPrefix(fn, m) {
				return "mem"
			}
		}
		for _, s := range schedFuncs {
			if fn == s {
				return "sched"
			}
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "ufab/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if l, ok := pkgLayer[pkg]; ok {
				return l
			}
			return "fab"
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	return "other"
}

// attribute decodes a gzipped profile.proto and sums each sample's CPU
// nanoseconds (the last sample value) by layer.
func attribute(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, u := range appendPacked(nil, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	var stack []string
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		stack = stack[:0]
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				if i := funcs[fid]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out[layerOf(stack)] += s.vals[len(s.vals)-1]
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks the fields of one protobuf message. Varint fields pass
// their value in v; length-delimited fields pass their bytes in b.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as one
// unpacked value (b == nil) or packed.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
