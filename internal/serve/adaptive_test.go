package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/monitor"
)

// TestTenantEvictionBoundsUndeclaredState is the regression test for the
// unbounded tenant-state growth bug: an adversary rotating tenant names must
// not grow the tenant map or the WRR ring without bound, while declared
// tenants survive any amount of rotation.
func TestTenantEvictionBoundsUndeclaredState(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{
		MaxBatch: 1, MaxDelay: time.Millisecond,
		Tenants: map[string]TenantConfig{"vip": {Weight: 3}},
	})

	ctx := context.Background()
	if _, err := s.Infer(ctx, itemReq("vip", Normal, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxTenants+40; i++ {
		if _, err := s.Infer(ctx, itemReq(fmt.Sprintf("rot-%d", i), Normal, 1)); err != nil {
			t.Fatalf("rotated tenant %d: %v", i, err)
		}
	}

	s.mu.Lock()
	resident := len(s.tenants)
	ringLen := len(s.ring)
	undeclared := s.undeclared
	_, vipAlive := s.tenants["vip"]
	s.mu.Unlock()

	if undeclared > maxTenants {
		t.Errorf("undeclared tenants = %d, want <= maxTenants (%d)", undeclared, maxTenants)
	}
	if resident > maxTenants+1 { // maxTenants undeclared + vip
		t.Errorf("resident tenant states = %d, want <= %d", resident, maxTenants+1)
	}
	if ringLen != resident {
		t.Errorf("ring length %d != tenant map size %d", ringLen, resident)
	}
	if !vipAlive {
		t.Error("declared tenant evicted; declared tenants must be permanent")
	}

	// Evicted tenants and the declared tenant keep working after eviction.
	if _, err := s.Infer(ctx, itemReq("rot-0", Normal, 1)); err != nil {
		t.Fatalf("re-admitting evicted tenant: %v", err)
	}
	if _, err := s.Infer(ctx, itemReq("vip", High, 1)); err != nil {
		t.Fatalf("declared tenant after rotation: %v", err)
	}
}

// TestShedRetryAfterScalesWithLevel is the regression test for the constant
// shed Retry-After bug: a client rejected because the engine halted must be
// told to back off much longer than one rejected at mild shedding.
func TestShedRetryAfterScalesWithLevel(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{})

	prev := time.Duration(0)
	for _, lvl := range []ShedLevel{ShedLow, ShedToHigh, ShedAll} {
		got := s.shedRetryAfter(lvl)
		if got <= prev {
			t.Errorf("shedRetryAfter(%v) = %v, want > %v", lvl, got, prev)
		}
		prev = got
	}
	if base := s.shedRetryAfter(ShedAll); base < time.Second {
		t.Errorf("halted-engine hint = %v, want >= 1s at the default base", base)
	}

	// End to end: halt the ladder and check the rejection carries the
	// scaled hint, not the old constant one-window hint.
	fe.setLadder(monitor.LadderHalted)
	waitFor(t, func() bool { return s.Shed() == ShedAll })
	_, err := s.Submit(itemReq("acme", High, 1))
	oe, ok := err.(*OverloadError)
	if !ok {
		t.Fatalf("want *OverloadError, got %v", err)
	}
	if oe.Scope != "shed" || oe.RetryAfter != s.shedRetryAfter(ShedAll) {
		t.Errorf("shed rejection = %+v, want scope shed with RetryAfter %v",
			oe, s.shedRetryAfter(ShedAll))
	}
}

func TestShedLevelString(t *testing.T) {
	cases := []struct {
		lvl  ShedLevel
		want string
	}{
		{ShedNone, "none"},
		{ShedLow, "shed-low"},
		{ShedToHigh, "shed-to-high"},
		{ShedAll, "shed-all"},
		{ShedLevel(7), "ShedLevel(7)"},
		{ShedLevel(-2), "ShedLevel(-2)"},
	}
	for _, c := range cases {
		if got := c.lvl.String(); got != c.want {
			t.Errorf("ShedLevel(%d).String() = %q, want %q", int(c.lvl), got, c.want)
		}
	}
}

func TestPriorityString(t *testing.T) {
	cases := []struct {
		p    Priority
		want string
	}{
		{High, "high"},
		{Normal, "normal"},
		{Low, "low"},
		{Priority(9), "Priority(9)"},
		{Priority(-1), "Priority(-1)"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("Priority(%d).String() = %q, want %q", int(c.p), got, c.want)
		}
	}
}

// TestSetBatchWindowRetunesScheduler verifies a live window change takes
// effect on subsequent batch assemblies.
func TestSetBatchWindowRetunesScheduler(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 8, MaxDelay: 10 * time.Second})
	s.SetBatchWindow(2, 10*time.Second)
	if mb, md := s.BatchWindow(); mb != 2 || md != 10*time.Second {
		t.Fatalf("BatchWindow() = %d, %v", mb, md)
	}

	resps := make([]<-chan Response, 4)
	for i := range resps {
		ch, err := s.Submit(itemReq("acme", Normal, float32(i)))
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = ch
	}
	for _, ch := range resps {
		r := <-ch
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.BatchFill > 2 {
			t.Errorf("batch fill %d exceeds retuned MaxBatch 2", r.BatchFill)
		}
	}

	// Clamping: nonsense values cannot wedge the scheduler.
	s.SetBatchWindow(0, -time.Second)
	if mb, md := s.BatchWindow(); mb != 1 || md != 0 {
		t.Errorf("clamped window = %d, %v, want 1, 0", mb, md)
	}
}

// TestShedFloorNeverAdmitsPastLadder pins the controller-safety invariant:
// the effective shed level is the max of ladder-derived level and floor, so
// no floor setting can re-admit lanes the ladder shed.
func TestShedFloorNeverAdmitsPastLadder(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{})

	fe.setLadder(monitor.LadderSingle) // → ShedToHigh
	waitFor(t, func() bool { return s.Shed() == ShedToHigh })

	s.SetShedFloor(ShedNone) // a floor below the ladder must change nothing
	if got := s.Shed(); got != ShedToHigh {
		t.Fatalf("floor ShedNone lowered effective level to %v", got)
	}
	if _, err := s.Submit(itemReq("acme", Normal, 1)); err == nil {
		t.Fatal("Normal lane admitted while ladder demands ShedToHigh")
	}

	s.SetShedFloor(ShedAll) // a floor above the ladder adds shedding
	if got := s.Shed(); got != ShedAll {
		t.Fatalf("effective = %v, want ShedAll with floor set", got)
	}
	if _, err := s.Submit(itemReq("acme", High, 1)); err == nil {
		t.Fatal("High lane admitted under ShedAll floor")
	}

	s.SetShedFloor(ShedNone)
	fe.setLadder(monitor.LadderFull)
	waitFor(t, func() bool { return s.Shed() == ShedNone })
	if _, err := s.Submit(itemReq("acme", Low, 1)); err != nil {
		t.Fatalf("recovered server rejected Low lane: %v", err)
	}
}

func TestSetTenantWeight(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{Tenants: map[string]TenantConfig{
		"acme": {Weight: 2, SLO: 50 * time.Millisecond},
	}})
	if w := s.TenantWeight("ghost"); w != 0 {
		t.Errorf("unknown tenant weight = %d, want 0", w)
	}
	s.SetTenantWeight("acme", 6)
	if w := s.TenantWeight("acme"); w != 6 {
		t.Errorf("weight = %d, want 6", w)
	}
	s.SetTenantWeight("acme", 0) // clamps to 1
	if w := s.TenantWeight("acme"); w != 1 {
		t.Errorf("clamped weight = %d, want 1", w)
	}
	slos := s.TenantSLOs()
	if slos["acme"] != 50*time.Millisecond {
		t.Errorf("TenantSLOs = %v", slos)
	}
}
