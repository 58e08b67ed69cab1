package diagnosis

import (
	"testing"
	"testing/quick"

	"decos/internal/vnet"
)

func TestSymptomRoundtrip(t *testing.T) {
	s := Symptom{
		Kind: SymValue, Observer: 3, Subject: 9, Channel: 42,
		Granule: 123456, Count: 7, Deviation: 1.5,
	}
	got, ok := DecodeSymptom(s.Encode())
	if !ok {
		t.Fatal("decode failed")
	}
	s.At = 0 // At is not on the wire
	if got != s {
		t.Errorf("roundtrip: got %+v want %+v", got, s)
	}
}

func TestSymptomRoundtripProperty(t *testing.T) {
	f := func(kind uint8, obs, subj, ch uint16, granule int64, count uint16, dev float32) bool {
		s := Symptom{
			Kind:     Kind(kind % uint8(numKinds)),
			Observer: FRUIndex(obs), Subject: FRUIndex(subj),
			Channel: vnet.ChannelID(ch), Granule: granule & 0x7fffffffffffffff,
			Count: count, Deviation: dev,
		}
		got, ok := DecodeSymptom(s.Encode())
		return ok && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSymptomDecodeRejectsBad(t *testing.T) {
	if _, ok := DecodeSymptom([]byte{1, 2, 3}); ok {
		t.Error("short input accepted")
	}
	s := Symptom{Kind: SymValue}.Encode()
	s[0] = byte(numKinds) + 3
	if _, ok := DecodeSymptom(s); ok {
		t.Error("invalid kind accepted")
	}
}

func TestSymptomKindDomains(t *testing.T) {
	for _, k := range []Kind{SymOmission, SymTiming, SymStale} {
		if !k.TimeDomain() || k.ValueDomain() {
			t.Errorf("%v domain flags wrong", k)
		}
	}
	for _, k := range []Kind{SymCorruption, SymValue, SymDeviation, SymStuck} {
		if !k.ValueDomain() || k.TimeDomain() {
			t.Errorf("%v domain flags wrong", k)
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("Kind(%d) has empty string", k)
		}
	}
}

func TestAlphaCountDiscriminates(t *testing.T) {
	a := NewAlphaCount(0.9, 2.5)
	// A single transient: score rises to 1, then decays below threshold.
	a.Step(1, true, 1)
	if a.Exceeded(1) {
		t.Error("single transient exceeded threshold")
	}
	for i := 0; i < 30; i++ {
		a.Step(1, false, 0)
	}
	if a.Score(1) > 0.1 {
		t.Errorf("score did not decay: %v", a.Score(1))
	}
	// A recurring fault: exceeds after a few epochs.
	for i := 0; i < 4; i++ {
		a.Step(2, true, 1)
	}
	if !a.Exceeded(2) {
		t.Errorf("recurring fault below threshold: %v", a.Score(2))
	}
	a.Reset(2)
	if a.Score(2) != 0 {
		t.Error("reset failed")
	}
}

func TestAlphaCountPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewAlphaCount(1.0, 1) },
		func() { NewAlphaCount(-0.1, 1) },
		func() { NewAlphaCount(0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad parameters accepted")
				}
			}()
			fn()
		}()
	}
}

func TestAlphaCountWeight(t *testing.T) {
	a := NewAlphaCount(0.5, 10)
	a.Step(1, true, 5)
	a.Step(1, true, 0) // weight 0 coerced to 1
	if got := a.Score(1); got != 6 {
		t.Errorf("score = %v, want 6", got)
	}
}

func TestHistoryWindowQueries(t *testing.T) {
	h := NewHistory(100, 4)
	for g := int64(0); g < 50; g++ {
		h.Add(Symptom{Kind: SymOmission, Subject: 1, Observer: 2, Granule: g, Count: 2})
	}
	h.Add(Symptom{Kind: SymCorruption, Subject: 1, Observer: 3, Granule: 49, Count: 1, Deviation: 5})
	if h.Latest() != 49 {
		t.Errorf("Latest = %d", h.Latest())
	}
	if got := h.Count(1, 10, 19, KindIn(SymOmission)); got != 20 {
		t.Errorf("Count = %d, want 20", got)
	}
	if got := h.Count(1, 0, 100, nil); got != 101 {
		t.Errorf("unfiltered Count = %d, want 101", got)
	}
	obs := h.Observers(1, 0, 100, nil)
	if len(obs) != 2 {
		t.Errorf("Observers = %v", obs)
	}
	gs := h.ActiveGranules(1, 45, 49, KindIn(SymOmission))
	if len(gs) != 5 || gs[0] != 45 || gs[4] != 49 {
		t.Errorf("ActiveGranules = %v", gs)
	}
	if d := h.MaxDeviation(1, 0, 100, nil); d != 5 {
		t.Errorf("MaxDeviation = %v", d)
	}
	if h.Count(99, 0, 100, nil) != 0 {
		t.Error("unknown subject has symptoms")
	}
}

func TestHistoryPrunes(t *testing.T) {
	h := NewHistory(10, 4)
	for g := int64(0); g < 100; g++ {
		h.Add(Symptom{Kind: SymOmission, Subject: 1, Granule: g, Count: 1})
	}
	if got := h.Count(1, 0, 100, nil); got > 12 {
		t.Errorf("retention failed: %d symptoms kept", got)
	}
	if h.Total() != 100 {
		t.Errorf("Total = %d", h.Total())
	}
}

func TestGranulesOverlap(t *testing.T) {
	cases := []struct {
		a, b  []int64
		delta int64
		want  bool
	}{
		{[]int64{1, 2}, []int64{3}, 1, true},
		{[]int64{1, 2}, []int64{10}, 1, false},
		{[]int64{10}, []int64{1, 9}, 1, true},
		{nil, []int64{1}, 5, false},
		{[]int64{100}, []int64{100}, 0, true},
	}
	for i, c := range cases {
		if got := granulesOverlap(c.a, c.b, c.delta); got != c.want {
			t.Errorf("case %d: got %v", i, got)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	d := DefaultOptions()
	if o.EpochRounds != d.EpochRounds || o.AlphaK != d.AlphaK || o.DiagChannelBase != d.DiagChannelBase {
		t.Error("zero options not defaulted")
	}
	// Explicit values survive.
	o2 := Options{EpochRounds: 7, AlphaThreshold: 9}.withDefaults()
	if o2.EpochRounds != 7 || o2.AlphaThreshold != 9 {
		t.Error("explicit options overwritten")
	}
}
