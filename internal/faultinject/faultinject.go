// Package faultinject provides a deterministic, seedable fault plan
// shared by every hardware simulator in the pipeline.
//
// Mr. Scan's substrate makes partial failure the normal case at scale:
// Lustre "fails under load (OST evictions, MDS timeouts)", MRNet
// processes die and their children must be re-parented, and worker nodes
// drop off mid-phase. Each simulator used to carry (or lack) its own
// ad-hoc fault hook; this package replaces them with a single Plan that
// every substrate consults at its fault sites:
//
//   - lustre.read / lustre.write — parallel file system I/O
//   - mrnet.hop                  — overlay tree edge traffic
//   - mrnet.node                 — internal overlay process crash
//   - mrnet.frame                — TCP overlay wire frames
//   - gpusim.launch              — GPGPU kernel launches
//   - gpusim.transfer            — host↔device DMA transfers
//   - distrib.conn               — coordinator→worker TCP exchanges
//   - distrib.request/.response  — coordinator↔worker wire payloads
//
// A Rule fires either after a fixed number of operations (op-count
// trigger) or with a seeded per-operation probability, for a bounded or
// unbounded number of failures. Bounded rules model transient faults
// that a retry policy should absorb; unbounded rules model permanent
// failures that must surface as errors. All counting is done under one
// mutex, so a plan driven by a deterministic operation order reproduces
// the same failure sequence on every run.
//
// Beyond clean error returns, a rule can inject silent *corruption*
// (Corrupt: a deterministic bit flip in the payload crossing the site,
// consulted via CorruptData/CorruptCheck rather than Check) or a
// *straggle* (Delay: the operation succeeds late). Corruption rules
// model the scale failure mode that errors cannot: data that is wrong
// rather than missing. They are only useful against data planes that
// checksum — the chaos harness asserts every injected corruption is
// caught at a checksummed boundary.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Site names a fault injection point. Substrates define their own site
// constants; tests may invent ad-hoc sites (e.g. per-worker sites in
// distrib).
type Site string

// Well-known fault sites consulted by the simulators.
const (
	LustreRead      Site = "lustre.read"
	LustreWrite     Site = "lustre.write"
	MRNetHop        Site = "mrnet.hop"
	MRNetNode       Site = "mrnet.node"
	MRNetFrame      Site = "mrnet.frame"
	GPULaunch       Site = "gpusim.launch"
	GPUTransfer     Site = "gpusim.transfer"
	DistribConn     Site = "distrib.conn"
	DistribRequest  Site = "distrib.request"
	DistribResponse Site = "distrib.response"
)

// LustreIO is a pseudo-site accepted by Arm and Parse: it arms one rule
// with a single shared counter across LustreRead and LustreWrite (N
// successful operations of either kind, then failure).
const LustreIO Site = "lustre.io"

// ErrInjected is the default error returned by a firing rule with no
// explicit Err.
var ErrInjected = errors.New("faultinject: injected fault")

// FatalError marks a fault that models process death rather than an
// error return: a node segfaulting, the OOM killer, a hardware machine
// check. Retry and recovery layers must NOT absorb it — the run dies
// where it stands, leaving whatever durable state (checkpoints, partial
// files) exists on the file system, exactly as a real mid-run crash
// would. A later run with resume enabled restarts from that state.
type FatalError struct {
	// Cause is the underlying injected error.
	Cause error
}

func (e *FatalError) Error() string {
	return fmt.Sprintf("faultinject: fatal fault (process killed): %v", e.Cause)
}

func (e *FatalError) Unwrap() error { return e.Cause }

// IsFatal reports whether err carries a FatalError anywhere in its
// chain. Every retry layer in the pipeline consults it before
// re-executing.
func IsFatal(err error) bool {
	var fe *FatalError
	return errors.As(err, &fe)
}

// Corruption reports one injected payload corruption: which site it
// crossed and which bit of the payload was flipped. Offset is relative
// to the payload handed to CorruptData (or to the modeled transfer size
// for CorruptCheck).
type Corruption struct {
	Site   Site
	Offset int64
	Bit    uint8
}

// CorruptionError is the error form of a Corruption, delivered to plan
// observers so telemetry can record injection events. It is never
// returned from an operation — corruption is silent by design; only a
// downstream checksum turns it back into an error.
type CorruptionError struct {
	Corruption
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("faultinject: corrupted payload at %s (offset %d, bit %d)", e.Site, e.Offset, e.Bit)
}

// DelayError is delivered to plan observers when a Delay rule fires.
// Like CorruptionError it never surfaces from the operation itself: the
// op merely completes late, modeling a straggler.
type DelayError struct {
	Site Site
	D    time.Duration
}

func (e *DelayError) Error() string {
	return fmt.Sprintf("faultinject: straggle at %s (%v)", e.Site, e.D)
}

// DegradeError is delivered to plan observers when a degrade rule
// activates at a site. Like DelayError it never surfaces from an
// operation: the component merely limps — every operation crossing the
// site costs Factor x its healthy latency until the window expires.
type DegradeError struct {
	Site   Site
	Factor float64
	For    time.Duration // 0 = permanent
}

func (e *DegradeError) Error() string {
	if e.For > 0 {
		return fmt.Sprintf("faultinject: degrade at %s (%gx for %v)", e.Site, e.Factor, e.For)
	}
	return fmt.Sprintf("faultinject: degrade at %s (%gx)", e.Site, e.Factor)
}

// Rule describes one fault trigger.
type Rule struct {
	// After is the number of Check calls at the armed site(s) that pass
	// before the rule starts firing. Ignored when Prob is set.
	After int64
	// Times bounds how many failures the rule injects; 0 means
	// unlimited (a permanent fault).
	Times int64
	// Prob, when positive, makes the rule probabilistic: each Check
	// fires with probability Prob, drawn from the plan's seeded PRNG.
	Prob float64
	// Err is the error injected; nil uses ErrInjected.
	Err error
	// Fatal wraps the injected error in a FatalError: the fault kills
	// the run (no retry layer may absorb it) instead of surfacing as a
	// recoverable error.
	Fatal bool
	// Corrupt makes this a corruption rule: instead of returning an
	// error from Check (which ignores it), the rule fires from
	// CorruptData/CorruptCheck and flips one seeded-deterministic bit
	// of the payload crossing the site. Err/Fatal are ignored.
	Corrupt bool
	// Delay, when positive on a non-corrupt rule with no Err, makes
	// the rule a straggler: a firing Check sleeps for Delay and then
	// succeeds, modeling a slow-but-correct operation.
	Delay time.Duration
	// Degrade, when > 1, makes this a gray-failure rule: the component
	// behind the site limps (every operation costs Degrade x its healthy
	// latency) instead of dying. Degrade rules never fire from Check —
	// simulators consult DegradeFactor and scale their own cost model.
	// After delays activation by that many DegradeFactor calls; once
	// active the factor holds for DegradeFor (0 = forever). Err/Fatal/
	// Corrupt/Delay are ignored.
	Degrade float64
	// DegradeFor bounds how long a triggered Degrade rule stays active;
	// 0 keeps it active forever.
	DegradeFor time.Duration
	// Flap, when non-empty, makes this a flapping rule: a pattern of
	// 'u' (up: the op passes) and 'd' (down: the op fails with Err)
	// characters cycled one per Check call at the site, modeling a link
	// or component that oscillates between working and broken. After
	// delays the pattern start; Times bounds the total failures injected.
	Flap string
}

// armedRule is a Rule plus its live counters. One armedRule may be
// registered at several sites (ArmShared), sharing the counters.
type armedRule struct {
	Rule
	remaining int64 // op credits left before firing (count-triggered)
	fired     int64
	flapPos   int64     // next pattern index for Flap rules
	activated time.Time // first activation time for Degrade rules
}

// Plan is a set of armed rules keyed by site. The zero value is not
// usable; construct with New. A nil *Plan is valid and injects nothing,
// so substrates can consult their plan unconditionally. Plan is safe
// for concurrent use.
type Plan struct {
	mu        sync.Mutex
	rng       *rand.Rand
	rules     map[Site][]*armedRule
	observer  func(site Site, err error, fatal bool)
	siteObs   map[Site][]func(site Site, err error, fatal bool)
	corrupted map[Site]int64
	log       []Corruption
}

// maxCorruptionLog bounds the per-plan corruption log; counters keep
// exact totals beyond it.
const maxCorruptionLog = 4096

// New returns an empty plan. The seed drives probabilistic rules; plans
// with the same seed, rules and Check sequence inject identical faults.
func New(seed int64) *Plan {
	return &Plan{
		rng:       rand.New(rand.NewSource(seed)),
		rules:     make(map[Site][]*armedRule),
		corrupted: make(map[Site]int64),
	}
}

// Arm registers a rule at a site and returns the plan for chaining.
// Arming the LustreIO pseudo-site shares one rule across LustreRead and
// LustreWrite.
func (p *Plan) Arm(site Site, r Rule) *Plan {
	if site == LustreIO {
		return p.ArmShared(r, LustreRead, LustreWrite)
	}
	return p.ArmShared(r, site)
}

// ArmShared registers one rule — with a single shared op counter and
// failure budget — at every listed site.
func (p *Plan) ArmShared(r Rule, sites ...Site) *Plan {
	ar := &armedRule{Rule: r, remaining: r.After}
	p.mu.Lock()
	for _, s := range sites {
		p.rules[s] = append(p.rules[s], ar)
	}
	p.mu.Unlock()
	return p
}

// SetObserver installs a callback invoked on every injected fault,
// after the plan's internal lock is released — observers may safely
// call back into the plan or into telemetry. A nil observer disables
// notification.
func (p *Plan) SetObserver(fn func(site Site, err error, fatal bool)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.observer = fn
	p.mu.Unlock()
}

// ObserveSite appends a per-site observer invoked (after the plan lock is
// released, like the global observer) for every fault event at exactly
// that site — errors, corruption, delays, flap firings, and degrade
// activations. Health trackers hook these to attribute fault evidence to
// the right component.
func (p *Plan) ObserveSite(site Site, fn func(site Site, err error, fatal bool)) {
	if p == nil || fn == nil {
		return
	}
	p.mu.Lock()
	if p.siteObs == nil {
		p.siteObs = make(map[Site][]func(Site, error, bool))
	}
	p.siteObs[site] = append(p.siteObs[site], fn)
	p.mu.Unlock()
}

// observersLocked snapshots the callbacks to notify for site.
func (p *Plan) observersLocked(site Site) []func(Site, error, bool) {
	var out []func(Site, error, bool)
	if p.observer != nil {
		out = append(out, p.observer)
	}
	return append(out, p.siteObs[site]...)
}

func notify(obs []func(Site, error, bool), site Site, err error, fatal bool) {
	for _, fn := range obs {
		fn(site, err, fatal)
	}
}

// Check consumes one operation at the site and returns the injected
// error if any armed (non-corrupt) rule fires. A firing Delay rule
// sleeps instead of erroring. A nil plan or an unarmed site always
// passes (and costs nothing). Corruption rules never fire here — they
// only answer CorruptData/CorruptCheck.
func (p *Plan) Check(site Site) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	ar := p.evalLocked(site, false)
	obs := p.observersLocked(site)
	p.mu.Unlock()
	if ar == nil {
		return nil
	}
	if ar.Err == nil && !ar.Fatal && ar.Flap == "" && ar.Delay > 0 {
		// Straggler: the op completes, just late.
		notify(obs, site, &DelayError{Site: site, D: ar.Delay}, false)
		time.Sleep(ar.Delay)
		return nil
	}
	err := ar.Err
	if err == nil {
		err = ErrInjected
	}
	notify(obs, site, err, ar.Fatal)
	if ar.Fatal {
		return &FatalError{Cause: err}
	}
	return err
}

// evalLocked runs the trigger logic for the site's rules of one kind
// (corrupt or not) under the plan lock, returning the firing rule.
func (p *Plan) evalLocked(site Site, corrupt bool) *armedRule {
	for _, ar := range p.rules[site] {
		if ar.Corrupt != corrupt || ar.Degrade > 1 {
			continue // degrade rules only answer DegradeFactor
		}
		if ar.Times > 0 && ar.fired >= ar.Times {
			continue // exhausted: transient fault has passed
		}
		if ar.Flap != "" {
			// Flapping: cycle the up/down pattern one step per op
			// (after the op-count trigger has been consumed).
			if ar.remaining > 0 {
				ar.remaining--
				continue
			}
			pos := ar.flapPos
			ar.flapPos++
			if ar.Flap[pos%int64(len(ar.Flap))] != 'd' {
				continue // link is up for this op
			}
			ar.fired++
			return ar
		}
		if ar.Prob > 0 {
			if p.rng.Float64() >= ar.Prob {
				continue
			}
		} else if ar.remaining > 0 {
			ar.remaining--
			continue
		}
		ar.fired++
		return ar
	}
	return nil
}

// DegradeFactor consumes one operation at the site for degrade rules and
// reports the latency multiplier currently in force: 1 when healthy, the
// largest active Degrade factor otherwise. Simulators multiply their own
// cost model by it, so a degraded component limps instead of dying. The
// first activation of each rule is reported to observers as a
// DegradeError.
func (p *Plan) DegradeFactor(site Site) float64 {
	if p == nil {
		return 1
	}
	p.mu.Lock()
	factor := 1.0
	var fireObs []func(Site, error, bool)
	var fireErr *DegradeError
	now := time.Now()
	for _, ar := range p.rules[site] {
		if ar.Degrade <= 1 {
			continue
		}
		if ar.activated.IsZero() {
			if ar.remaining > 0 {
				ar.remaining--
				continue
			}
			ar.activated = now
			ar.fired++
			fireObs = p.observersLocked(site)
			fireErr = &DegradeError{Site: site, Factor: ar.Degrade, For: ar.DegradeFor}
		}
		if ar.DegradeFor > 0 && now.Sub(ar.activated) >= ar.DegradeFor {
			continue // window expired: back to healthy
		}
		if ar.Degrade > factor {
			factor = ar.Degrade
		}
	}
	p.mu.Unlock()
	if fireErr != nil {
		notify(fireObs, site, fireErr, false)
	}
	return factor
}

// CorruptData consumes one operation at the site for corruption rules
// and, if one fires, flips one seeded-deterministic bit of data in
// place, records the injection, notifies the observer, and returns its
// description. Empty payloads never fire (there is nothing to flip, so
// the op is not consumed). The flip is silent: callers must rely on
// their checksum layer — not the return value — to notice on the read
// side.
func (p *Plan) CorruptData(site Site, data []byte) *Corruption {
	if p == nil || len(data) == 0 {
		return nil
	}
	c, obs := p.corrupt(site, int64(len(data)))
	if c == nil {
		return nil
	}
	data[c.Offset] ^= 1 << c.Bit
	notify(obs, site, &CorruptionError{Corruption: *c}, false)
	return c
}

// CorruptCheck is CorruptData for modeled data planes that move no real
// bytes (the in-process overlay, simulated DMA): it consumes one op for
// corruption rules at the site and reports what would have been flipped
// in an n-byte transfer. n <= 0 is treated as a 1-byte frame — a wire
// message always has at least header bytes to corrupt.
func (p *Plan) CorruptCheck(site Site, n int64) *Corruption {
	if p == nil {
		return nil
	}
	if n <= 0 {
		n = 1
	}
	c, obs := p.corrupt(site, n)
	if c == nil {
		return nil
	}
	notify(obs, site, &CorruptionError{Corruption: *c}, false)
	return c
}

// corrupt evaluates corruption rules at the site and draws the flip
// position for an n-byte payload.
func (p *Plan) corrupt(site Site, n int64) (*Corruption, []func(Site, error, bool)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.evalLocked(site, true) == nil {
		return nil, nil
	}
	c := &Corruption{
		Site:   site,
		Offset: p.rng.Int63n(n),
		Bit:    uint8(p.rng.Intn(8)),
	}
	p.corrupted[site]++
	if len(p.log) < maxCorruptionLog {
		p.log = append(p.log, *c)
	}
	return c, p.observersLocked(site)
}

// CorruptionsInjected returns how many corruptions have been injected
// at the site so far.
func (p *Plan) CorruptionsInjected(site Site) int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.corrupted[site]
}

// TotalCorruptions returns the total corruptions injected across all
// sites. The chaos harness checks this against the detected + masked
// counts reported by the checksummed planes.
func (p *Plan) TotalCorruptions() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, c := range p.corrupted {
		n += c
	}
	return n
}

// Fired returns how many failures have been injected at the site so far
// (summed over its rules; a shared rule counts once per site it fired
// at — i.e. per firing Check call).
func (p *Plan) Fired(site Site) int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	seen := make(map[*armedRule]bool)
	for _, ar := range p.rules[site] {
		if !seen[ar] {
			seen[ar] = true
			n += ar.fired
		}
	}
	return n
}

// TotalFired returns the total number of injected failures across all
// sites.
func (p *Plan) TotalFired() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	seen := make(map[*armedRule]bool)
	for _, rs := range p.rules {
		for _, ar := range rs {
			if !seen[ar] {
				seen[ar] = true
				n += ar.fired
			}
		}
	}
	return n
}

// Sites returns the armed sites, sorted (for logs and tests).
func (p *Plan) Sites() []Site {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]Site, 0, len(p.rules))
	for s := range p.rules {
		out = append(out, s)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Parse builds a plan from a compact spec string, the format of the
// CLI's -fault-plan flag:
//
//	site:key=val[,key=val...][;site:...]
//
// Keys: after=N (op-count trigger), times=K (failure budget, 0 =
// permanent), prob=P (probability trigger), msg=S (error text), fatal=B
// (kill the run instead of erroring — see FatalError), corrupt=B (flip
// a payload bit instead of erroring — see CorruptData), delay=D (a
// straggle duration, e.g. 50ms), degrade=FxD (limp at F x healthy
// latency for duration D, e.g. 20x500ms; bare degrade=F limps forever —
// see DegradeFactor), flap=PATTERN (a string of 'u'/'d' characters
// cycled one per op, e.g. flap=uud — see Rule.Flap). The pseudo-site
// lustre.io arms a shared rule over lustre.read and lustre.write.
// Example:
//
//	lustre.io:after=100,times=2;mrnet.node:times=1;mrnet.hop:prob=0.001
//	lustre.read:corrupt=true,times=2;distrib.response:corrupt=true,prob=0.01
//
// An empty spec yields a nil plan (no injection).
func Parse(spec string, seed int64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := New(seed)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, kvs, ok := strings.Cut(entry, ":")
		if !ok || strings.TrimSpace(site) == "" {
			return nil, fmt.Errorf("faultinject: entry %q: want site:key=val,...", entry)
		}
		var r Rule
		for _, kv := range strings.Split(kvs, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: entry %q: bad pair %q", entry, kv)
			}
			switch k {
			case "after":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("faultinject: entry %q: bad after=%q", entry, v)
				}
				r.After = n
			case "times":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("faultinject: entry %q: bad times=%q", entry, v)
				}
				r.Times = n
			case "prob":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f < 0 || f > 1 {
					return nil, fmt.Errorf("faultinject: entry %q: bad prob=%q", entry, v)
				}
				r.Prob = f
			case "msg":
				r.Err = errors.New(v)
			case "fatal":
				b, err := strconv.ParseBool(v)
				if err != nil {
					return nil, fmt.Errorf("faultinject: entry %q: bad fatal=%q", entry, v)
				}
				r.Fatal = b
			case "corrupt":
				b, err := strconv.ParseBool(v)
				if err != nil {
					return nil, fmt.Errorf("faultinject: entry %q: bad corrupt=%q", entry, v)
				}
				r.Corrupt = b
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faultinject: entry %q: bad delay=%q", entry, v)
				}
				r.Delay = d
			case "degrade":
				fs, ds, hasDur := strings.Cut(v, "x")
				f, err := strconv.ParseFloat(fs, 64)
				if err != nil || f <= 1 {
					return nil, fmt.Errorf("faultinject: entry %q: bad degrade=%q (want FACTOR or FACTORxDUR, factor > 1)", entry, v)
				}
				r.Degrade = f
				if hasDur {
					d, err := time.ParseDuration(ds)
					if err != nil || d <= 0 {
						return nil, fmt.Errorf("faultinject: entry %q: bad degrade=%q (bad duration)", entry, v)
					}
					r.DegradeFor = d
				}
			case "flap":
				if v == "" || strings.Trim(v, "ud") != "" {
					return nil, fmt.Errorf("faultinject: entry %q: bad flap=%q (want a string of 'u'/'d')", entry, v)
				}
				r.Flap = v
			default:
				return nil, fmt.Errorf("faultinject: entry %q: unknown key %q", entry, k)
			}
		}
		p.Arm(Site(strings.TrimSpace(site)), r)
	}
	return p, nil
}
