package lustre

import (
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/health"
)

// OSTFaultSite names the per-OST fault site ("lustre.ost.<i>") consulted
// by chargeIO for degrade rules: arming a degrade rule there makes that
// OST limp — every chunk charged to it costs the degrade factor more —
// without erroring, the gray failure mode of a sick storage target.
func OSTFaultSite(ost int) faultinject.Site {
	return faultinject.Site(fmt.Sprintf("lustre.ost.%d", ost))
}

// ostComponent names the health-tracker component for an OST.
func ostComponent(ost int) string {
	return fmt.Sprintf("ost.%d", ost)
}

// EnableOSTHealth turns on per-OST latency scoring: every chunk charged
// by chargeIO feeds a health tracker keyed "ost.<i>", normalized per MiB
// so chunk sizes don't skew the fleet comparison. A persistently slow
// OST is quarantined by the tracker, and segment placement (HealthyOSTs)
// steers new shard files away from it.
func (fs *FS) EnableOSTHealth(cfg health.Config) *health.Tracker {
	t := health.New(cfg)
	fs.mu.Lock()
	fs.ostHealth = t
	t.SetTelemetry(fs.hub)
	fs.mu.Unlock()
	return t
}

// SetRetryBudget installs the shared retry budget consulted before an
// integrity reread heals a transient read corruption. When the budget is
// exhausted the heal is denied and the read fails loudly with
// ErrCorruptData wrapping health.ErrBudgetExhausted.
func (fs *FS) SetRetryBudget(b *health.Budget) {
	fs.mu.Lock()
	fs.budget = b
	fs.mu.Unlock()
}

// HealthyOSTs lists the OSTs currently fit for new file placement: all
// of them when OST health tracking is disabled (nil result) or none are
// quarantined, otherwise the non-quarantined subset. If every OST were
// quarantined the full set is returned — placement must always have a
// target.
func (fs *FS) HealthyOSTs() []int {
	fs.mu.Lock()
	tracker := fs.ostHealth
	fs.mu.Unlock()
	if tracker == nil {
		return nil
	}
	healthy := make([]int, 0, fs.cfg.OSTs)
	for i := 0; i < fs.cfg.OSTs; i++ {
		if !tracker.Quarantined(ostComponent(i)) {
			healthy = append(healthy, i)
		}
	}
	if len(healthy) == 0 {
		for i := 0; i < fs.cfg.OSTs; i++ {
			healthy = append(healthy, i)
		}
	}
	return healthy
}

// CreateWithOSTs is Create with an explicit OST layout: the file stripes
// round-robin over osts instead of all OSTs, the per-file equivalent of
// a real Lustre stripe offset + count. Out-of-range entries are dropped;
// an empty (or fully dropped) list falls back to the default layout.
// Existing files and the default Create keep the exact legacy layout, so
// simulated costs of established paths are unchanged.
func (fs *FS) CreateWithOSTs(name string, osts []int) *Handle {
	valid := make([]int, 0, len(osts))
	for _, o := range osts {
		if o >= 0 && o < fs.cfg.OSTs {
			valid = append(valid, o)
		}
	}
	if len(valid) == 0 {
		valid = nil
	}
	h := fs.Create(name)
	h.f.osts = valid
	return h
}

// FileOSTs reports the explicit OST layout of a file, or nil for the
// default round-robin layout (or a missing file).
func (fs *FS) FileOSTs(name string) []int {
	fs.mu.Lock()
	f := fs.files[name]
	fs.mu.Unlock()
	if f == nil || len(f.osts) == 0 {
		return nil
	}
	out := make([]int, len(f.osts))
	copy(out, f.osts)
	return out
}
