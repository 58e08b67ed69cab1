package main

import (
	"math"
	"testing"
)

// cannedCPU is `go tool pprof -traces -lines -sample_index=samples` output
// trimmed to one stack per attribution rule.
const cannedCPU = `File: decos-bench
Type: samples
Duration: 16.74s, Total samples = 36
-----------+-------------------------------------------------------
        10   decos/internal/vnet.crc16 /src/internal/vnet/message.go:104 (inline)
             decos/internal/vnet.decodeSegment /src/internal/vnet/message.go:162
             decos/internal/component.controller.OnSlot /src/internal/component/component.go:67
             decos/internal/tt.(*Bus).runSlot /src/internal/tt/bus.go:344
             decos/internal/sim.(*Scheduler).Step /src/internal/sim/scheduler.go:215
-----------+-------------------------------------------------------
         4   encoding/json.(*encodeState).marshal /usr/local/go/src/encoding/json/encode.go:298
             encoding/json.(*Encoder).Encode /usr/local/go/src/encoding/json/stream.go:210
             decos/internal/trace.(*NDJSONSink).Record /src/internal/trace/sink.go:44
             decos/internal/diagnosis.(*Assessor).evaluateEpoch /src/internal/diagnosis/assessor.go:278
-----------+-------------------------------------------------------
         5   decos/internal/ckpt.(*Encoder).Uint64 /src/internal/ckpt/ckpt.go:80
             decos/internal/engine.(*Engine).encode /src/internal/engine/checkpoint.go:90
-----------+-------------------------------------------------------
         3   runtime.mallocgc /usr/local/go/src/runtime/malloc.go:1000
             decos/internal/diagnosis.(*History).Snapshot /src/internal/diagnosis/checkpoint.go:50
             decos/internal/engine.(*Engine).encode /src/internal/engine/checkpoint.go:95
-----------+-------------------------------------------------------
         2   decos/internal/component.(*Cluster).RunToRoundCtx /src/internal/component/checkpoint.go:133
             decos/internal/scenario.Campaign.run.func1 /src/internal/scenario/campaign.go:384
-----------+-------------------------------------------------------
         6   runtime.scanobject /usr/local/go/src/runtime/mgcmark.go:1400
             runtime.gcDrain /usr/local/go/src/runtime/mgcmark.go:1200
             runtime.gcBgMarkWorker.func2 /usr/local/go/src/runtime/mgc.go:1500
             runtime.systemstack /usr/local/go/src/runtime/asm_amd64.s:514
             runtime.gcBgMarkWorker /usr/local/go/src/runtime/mgc.go:1480
-----------+-------------------------------------------------------
         1   runtime.futex /usr/local/go/src/runtime/sys_linux_amd64.s:557
             internal/runtime/syscall.Syscall6 /usr/local/go/src/internal/runtime/syscall/asm_linux_amd64.s:36
             runtime.mstart /usr/local/go/src/runtime/proc.go:1600
-----------+-------------------------------------------------------
         3   net/http/httptest.NewRequest /usr/local/go/src/net/http/httptest/httptest.go:40
             main.ingestPass.func1 /src/bench/workloads.go:290
-----------+-------------------------------------------------------
         2   decos/internal/whatif.Replay /src/internal/whatif/whatif.go:10
`

func TestParseTraces(t *testing.T) {
	stacks, err := parseTraces(cannedCPU)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 9 {
		t.Fatalf("parsed %d stacks, want 9", len(stacks))
	}
	first := stacks[0]
	if first.value != 10 || len(first.frames) != 5 {
		t.Fatalf("first stack: value %v, %d frames", first.value, len(first.frames))
	}
	if f := first.frames[0]; f.fn != "decos/internal/vnet.crc16" || f.file != "/src/internal/vnet/message.go" {
		t.Errorf("innermost frame parsed as %+v", f)
	}
}

func TestLayerOf(t *testing.T) {
	stacks, err := parseTraces(cannedCPU)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"vnet",      // innermost module frame, callers in component/tt/sim ignored
		"trace",     // encoding/json under trace is trace's cost
		"ckpt",      // the ckpt package
		"ckpt",      // a checkpoint.go frame, with mallocgc above it
		"component", // RunToRoundCtx lives in checkpoint.go but is a run loop
		"gc",        // runtime-only, under a background mark worker
		"runtime",   // runtime-only otherwise
		"other",     // the benchmark's own frames
		"other",     // a module outside the layer list
	}
	for i, s := range stacks {
		if got := layerOf(s.frames); got != want[i] {
			t.Errorf("stack %d (%s): layer %q, want %q", i, s.frames[0].fn, got, want[i])
		}
	}
}

func TestLedgerShares(t *testing.T) {
	stacks, err := parseTraces(cannedCPU)
	if err != nil {
		t.Fatal(err)
	}
	l := attribute(stacks)
	if l.total != 36 {
		t.Fatalf("total %v, want 36", l.total)
	}
	for layer, want := range map[string]float64{"ckpt": 8.0 / 36, "vnet": 10.0 / 36, "bayes": 0} {
		if got := l.share(layer); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s share %v, want %v", layer, got, want)
		}
	}
	if got, want := l.named(), 31.0/36; math.Abs(got-want) > 1e-12 {
		t.Errorf("named share %v, want %v", got, want)
	}
	if empty := attribute(nil); empty.share("vnet") != 0 || empty.named() != 0 {
		t.Error("an empty profile must give zero shares")
	}
}

// TestParseAllocTraces covers the memory-profile form: a "bytes:" label
// line precedes each sample, and -unit=B suffixes the value.
func TestParseAllocTraces(t *testing.T) {
	const canned = `Type: alloc_space
-----------+-------------------------------------------------------
     bytes:  12kB
   524288B   decos/internal/diagnosis.(*Adviser).updateTrust /src/internal/diagnosis/adviser.go:126
             decos/internal/diagnosis.(*Adviser).Advance /src/internal/diagnosis/adviser.go:93
-----------+-------------------------------------------------------
     bytes:  16B
  1048576B   decos/internal/vnet.(*InPort).deliver /src/internal/vnet/fabric.go:84
`
	stacks, err := parseTraces(canned)
	if err != nil {
		t.Fatal(err)
	}
	l := attribute(stacks)
	if l.by["diagnosis"] != 524288 || l.by["vnet"] != 1048576 {
		t.Errorf("alloc ledger %v", l.by)
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	if _, err := parseTraces("-----------+----\n   ms decos/internal/sim.F /x.go:1\n"); err == nil {
		t.Error("a sample line without a value parsed")
	}
}
