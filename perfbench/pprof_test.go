package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// pbuf is a minimal protobuf writer for building profiles by hand.
type pbuf []byte

func (p *pbuf) key(num, wire int) { *p = binary.AppendUvarint(*p, uint64(num<<3|wire)) }

func (p *pbuf) varint(num int, v uint64) {
	p.key(num, 0)
	*p = binary.AppendUvarint(*p, v)
}

func (p *pbuf) msg(num int, b []byte) {
	p.key(num, 2)
	*p = binary.AppendUvarint(*p, uint64(len(b)))
	*p = append(*p, b...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// handProfile builds a gzipped CPU profile with one sample per stack
// (leaf first); sample i has cpu value (i+1)·10ms. Every other sample
// encodes its fields unpacked, and the first stack's two leaf frames share
// one location, the way the runtime records an inlined call.
func handProfile(t *testing.T, stacks [][]string) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	var p pbuf
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pbuf
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		p.msg(1, m)
	}
	funcs := map[string]uint64{}
	nextLoc := uint64(1)
	for i, stack := range stacks {
		var locs []uint64
		for j := 0; j < len(stack); j++ {
			lines := []string{stack[j]}
			if i == 0 && j == 0 && len(stack) > 1 {
				lines = append(lines, stack[1]) // inlined into its caller
				j++
			}
			var loc pbuf
			loc.varint(1, nextLoc)
			for _, fn := range lines {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f pbuf
					f.varint(1, id)
					f.varint(2, uint64(len(strs)))
					strs = append(strs, fn)
					p.msg(5, f)
				}
				var line pbuf
				line.varint(1, id)
				loc.msg(4, line)
			}
			p.msg(4, loc)
			locs = append(locs, nextLoc)
			nextLoc++
		}
		var s pbuf
		cpu := uint64(i+1) * 10_000_000
		if i%2 == 0 {
			s.msg(1, packed(locs...))
			s.msg(2, packed(1, cpu))
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
			s.varint(2, 1)
			s.varint(2, cpu)
		}
		p.msg(2, s)
	}
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeFoldsHelpersIntoCallingLayer(t *testing.T) {
	stacks := []struct {
		layer string
		stack []string
	}{
		{"devlib", []string{ // the eager backoff seeding, under admission
			"math/rand.(*rngSource).Seed",
			"kubeshare/internal/simrand.New",
			"kubeshare/internal/kube/backoff.New",
			"kubeshare/internal/devlib.(*Frontend).acquireLease",
			"kubeshare/internal/devlib.(*Frontend).LaunchKernel",
			"main.(*image).serve",
			"kubeshare/internal/sim.(*Env).Go.func1",
		}},
		{"go", []string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"store", []string{
			"encoding/json.(*decodeState).object",
			"kubeshare/internal/kube/store.(*Store).Crash",
			"kubeshare/internal/kube/apiserver.(*Server).Restart",
		}},
		{"schedfw", []string{
			"runtime.duffcopy",
			"kubeshare/internal/core/schedfw/fwk.(*Engine).filterAll",
			"kubeshare/internal/core/schedfw.(*Scheduler).runCycle",
		}},
		{"core", []string{
			"kubeshare/internal/kube/api.ObjectMeta.CloneMeta",
			"kubeshare/internal/core.(*SharePod).DeepCopyObject",
			"kubeshare/internal/kube/store.(*Store).List",
		}},
		{"apiserver", []string{
			"kubeshare/internal/kube/labels.Selector.Matches",
			"kubeshare/internal/kube/apiserver.Client[go.shape.*uint8].Create",
		}},
		{"bench", []string{"main.(*image).serve", "kubeshare/internal/sim.(*Proc).run"}},
		{"obs", []string{"kubeshare/internal/obs.(*Tracer).push", "kubeshare/internal/devlib.(*Frontend).acquireLease"}},
		{"kubelet", []string{"kubeshare/internal/kube/kubelet.(*Kubelet).syncPod", "kubeshare/internal/sim.(*Env).Step"}},
		{"gpusim", []string{"kubeshare/internal/cuda.Open", "kubeshare/internal/devlib.(*Frontend).LaunchKernel"}},
		{"sim", []string{"runtime.mapaccess1", "kubeshare/internal/sim.(*Env).Step", "main.run"}},
		{"go", []string{"runtime.mcall"}},
	}
	var raw [][]string
	want := map[string]int64{}
	for i, s := range stacks {
		raw = append(raw, s.stack)
		want[s.layer] += int64(i+1) * 10_000_000
	}
	gz := handProfile(t, raw)

	cpu, err := attribute(gz, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	for layer, v := range want {
		if cpu.byLayer[layer] != v {
			t.Errorf("layer %s = %d, want %d", layer, cpu.byLayer[layer], v)
		}
	}
	if len(cpu.byLayer) != len(want) {
		t.Errorf("layers %v, want exactly %v", cpu.byLayer, want)
	}
	counts, err := attribute(gz, "samples")
	if err != nil {
		t.Fatal(err)
	}
	if counts.total != int64(len(stacks)) {
		t.Errorf("sample total %d, want %d", counts.total, len(stacks))
	}
	if _, err := attribute(gz, "alloc_space"); err == nil {
		t.Error("attribute accepted a sample type the profile lacks")
	}
	if _, err := attribute([]byte("not a profile"), "cpu"); err == nil {
		t.Error("attribute accepted garbage")
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"kubeshare/internal/devlib.(*Frontend).acquireLease":               "kubeshare/internal/devlib",
		"kubeshare/internal/devlib/sharing.(*Token).Admit.func1":           "kubeshare/internal/devlib/sharing",
		"kubeshare/internal/kube/apiserver.Client[go.shape.*uint8].Create": "kubeshare/internal/kube/apiserver",
		"encoding/json.(*decodeState).object":                              "encoding/json",
		"runtime.mallocgc":                                                 "runtime",
		"main.main":                                                        "main",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if l := frameLayer("kubeshare/internal/kube/backoff.New"); l != "" {
		t.Errorf("backoff is a helper, got layer %q", l)
	}
	if l := frameLayer("kubeshare/internal/kube/kubelet.(*Kubelet).run"); l != "kubelet" {
		t.Errorf("kubelet frame in layer %q", l)
	}
	if l := frameLayer("kubeshare/internal/kube/store.(*Store).Get"); l != "store" {
		t.Errorf("store frame in layer %q, want the longer prefix's store", l)
	}
}
