package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes a runtime/pprof CPU profile to the repository's
// layers. It decodes the gzipped protobuf profile directly (the standard
// library writes it but ships no reader), keeping only samples,
// locations, functions, labels and the string table.

type cpuProfile struct {
	samples   []pprofSample
	locations map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions map[uint64]int64    // function ID -> string table index of its name
	strings   []string
}

type pprofSample struct {
	locs   []uint64 // leaf first
	count  int64
	labels [][2]int64 // string table indices of each label's key and value
}

var errTruncated = errors.New("pprof: truncated message")

func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &cpuProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var s pprofSample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					if b != nil {
						vs, err := packed(b)
						s.locs = append(s.locs, vs...)
						return err
					}
					s.locs = append(s.locs, v)
				case 2:
					if s.count != 0 {
						return nil // first value is the sample count
					}
					if b != nil {
						vs, err := packed(b)
						if len(vs) > 0 {
							s.count = int64(vs[0])
						}
						return err
					}
					s.count = int64(v)
				case 3: // label
					var kv [2]int64
					err := fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// fields walks the top-level fields of a protobuf message, calling fn
// with the varint value (wire type 0) or the payload (wire type 2).
func fields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if payload == nil {
				payload = []byte{}
			}
			if err := fn(field, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
	}
	return nil
}

func packed(b []byte) ([]uint64, error) {
	var out []uint64
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return out, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// frames returns a sample's function names, leaf first.
func (p *cpuProfile) frames(s pprofSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fid := range p.locations[loc] {
			if idx := p.functions[fid]; idx >= 0 && int(idx) < len(p.strings) {
				out = append(out, p.strings[idx])
			}
		}
	}
	return out
}

// label returns the value of a sample's label key, or "".
func (p *cpuProfile) label(s pprofSample, key string) string {
	str := func(i int64) string {
		if i >= 0 && int(i) < len(p.strings) {
			return p.strings[i]
		}
		return ""
	}
	for _, kv := range s.labels {
		if str(kv[0]) == key {
			return str(kv[1])
		}
	}
	return ""
}

// cpuShares attributes every sample to one layer and returns each
// layer's share of all samples; the remainder is under "unattributed".
// Samples taken inside the benchmark's checks (checkLabels) are charged
// to bench whatever code they ran.
func (p *cpuProfile) cpuShares() map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if p.label(s, checkLabelKey) == checkLabelValue {
			counts["bench"] += s.count
		} else {
			counts[classify(p.frames(s))] += s.count
		}
		total += s.count
	}
	shares := map[string]float64{}
	for _, l := range append(cpuLayers, "unattributed") {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares
}

// repoLayers maps the repository's package paths to layer names. Other
// repository packages (core, fherr) are charged to their caller.
var repoLayers = map[string]string{
	"bitpacker":                       "api",
	"bitpacker/internal/ckks":         "ckks",
	"bitpacker/internal/ring":         "ring",
	"bitpacker/internal/ntt":          "ntt",
	"bitpacker/internal/rns":          "rns",
	"bitpacker/internal/nt":           "nt",
	"bitpacker/internal/engine":       "engine",
	"bitpacker/internal/pipeline":     "pipeline",
	"bitpacker/internal/serve":        "serve",
	"bitpacker/internal/shard":        "shard",
	"bitpacker/internal/shard/worker": "shard",
	"main":                            "bench",
}

// Runtime functions by the cost they stand for. Matching is by prefix;
// runtime functions in none of the lists (memmove, map and hash helpers,
// conversions) are charged to the nearest caller that is classified.
var (
	gcPrefixes = []string{
		"runtime.gc", "runtime.mark", "runtime.scan", "runtime.greyobject",
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.nextFree", "runtime.heapSetType",
		"runtime.sweep", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.findObject", "runtime.wbBuf", "runtime.bulkBarrier",
		"runtime.(*mheap)", "runtime.(*mspan)", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*gcWork)", "runtime.(*gcBits)",
		"runtime.(*pageAlloc)", "runtime.(*sweepLocked)", "runtime.(*scavenger",
		"runtime.deductAssistCredit", "runtime.publicationBarrier",
		"runtime.memclrNoHeapPointersChunked", "runtime.typePointers",
		"runtime.(*mSpanStateBox)", "runtime.(*fixalloc)", "runtime.sysUnused",
		"runtime.sysUsed", "runtime.madvise", "runtime.(*spanSet)",
	}
	schedPrefixes = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.runq",
		"runtime.stealWork", "runtime.futex", "runtime.notesleep",
		"runtime.notewakeup", "runtime.usleep", "runtime.osyield",
		"runtime.procyield", "runtime.lock", "runtime.unlock", "runtime.mcall",
		"runtime.gosched", "runtime.goschedImpl", "runtime.wakep",
		"runtime.startm", "runtime.stopm", "runtime.handoffp",
		"runtime.netpoll", "runtime.epollwait", "runtime.checkTimers",
		"runtime.(*timers)", "runtime.selectgo", "runtime.chansend",
		"runtime.chanrecv", "runtime.semacquire", "runtime.semrelease",
		"runtime.casgstatus", "runtime.execute", "runtime.resetspinning",
		"runtime.mPark", "runtime.retake", "runtime.sysmon", "runtime.newproc",
		"runtime.goexit", "runtime.acquirep", "runtime.releasep",
		"runtime.nanotime", "runtime.walltime", "runtime.runtimer",
		"runtime.(*timer)", "runtime.sellock", "runtime.selunlock",
		"runtime.gcstopm", "runtime.preempt", "runtime.asyncPreempt",
		"runtime.morestack", "runtime.newstack", "runtime.copystack",
		"sync.(*Mutex)", "sync.(*RWMutex)", "sync.(*WaitGroup)", "sync.(*Cond)",
		"sync/atomic.", "internal/sync.", "sync.runtime_",
	}
	syscallPrefixes = []string{
		"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall.",
		"internal/syscall/", "internal/poll.", "runtime.entersyscall",
		"runtime.exitsyscall", "os.(*File)",
		"os.(*Process)", "os.StartProcess", "os.forkExec", "os/exec.",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol such as
// "bitpacker/internal/ntt.(*Table).Forward".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// classify walks a stack from the leaf toward the root and returns the
// first frame's layer that is a known runtime cost or a repository
// package; frames of other standard-library packages are charged to
// their caller.
func classify(frames []string) string {
	for _, fn := range frames {
		switch {
		case hasAnyPrefix(fn, gcPrefixes):
			return "gc"
		case hasAnyPrefix(fn, syscallPrefixes):
			return "syscall"
		case hasAnyPrefix(fn, schedPrefixes):
			return "sched"
		}
		if l, ok := repoLayers[funcPackage(fn)]; ok {
			return l
		}
	}
	return "unattributed"
}
