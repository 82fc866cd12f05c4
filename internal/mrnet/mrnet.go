// Package mrnet implements a tree-based multicast/reduction overlay
// network in the style of MRNet (Roth, Arnold & Miller, SC'03), the
// process-tree substrate Mr. Scan runs on.
//
// A Network is a tree of Nodes: one root, optional levels of internal
// (filter) processes, and leaf processes. Two collective operations mirror
// MRNet's programming model:
//
//   - Reduce: every leaf produces a payload; each internal node combines
//     its children's payloads with a filter function; the root receives the
//     final value. Mr. Scan uses this for histogram aggregation in the
//     partitioner and for the progressive cluster merge (§3.3.2: "clusters
//     are progressively merged by each level of intermediate processes").
//   - Multicast: the root's payload is distributed down the tree, with an
//     optional per-node split, and delivered to every leaf. Mr. Scan uses
//     this to broadcast partition boundaries and, in the sweep phase, the
//     global cluster ID assignments.
//
// Every node runs concurrently (a goroutine per node per operation), so
// subtree work genuinely overlaps, as on a real MRNet instantiation.
// Communication and startup costs of the machine we do not have (Cray
// ALPS process launch, per-hop network latency) are charged to a simulated
// clock.
package mrnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/health"
	"repro/internal/integrity"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// DefaultFanout is the 256-way fanout the paper uses for intermediate
// processes ("each intermediate process has a 256-way fanout of child
// processes whenever possible", §5.1).
const DefaultFanout = 256

// CostModel describes the simulated communication costs.
type CostModel struct {
	// HopLatency is charged per payload per tree hop.
	HopLatency time.Duration
	// BytesPerSec is the per-link bandwidth (0 disables byte costs).
	BytesPerSec float64
	// StartupBase and StartupPerNode model tool startup: the paper
	// attributes a linear growth term to "linear behavior in Cray ALPS"
	// (§5.1.1); startup = StartupBase + StartupPerNode × processes.
	StartupBase    time.Duration
	StartupPerNode time.Duration
	// ReconnectLatency is charged per re-parented child when an internal
	// node fails and its children reconnect to their grandparent (the
	// MRNet recovery model).
	ReconnectLatency time.Duration
}

// TitanCosts returns the cost model used by the experiments, with a
// startup ramp tuned to show the paper's linear MRNet startup component.
func TitanCosts() CostModel {
	return CostModel{
		HopLatency:       20 * time.Microsecond,
		BytesPerSec:      5e9,
		StartupBase:      500 * time.Millisecond,
		StartupPerNode:   2 * time.Millisecond,
		ReconnectLatency: 50 * time.Millisecond,
	}
}

// Node is one process in the tree.
type Node struct {
	id       int
	level    int // 0 at the root, increasing downwards
	parent   *Node
	children []*Node
	// leafIndex is the dense index among leaves, -1 for internal nodes.
	leafIndex int
	// firstLeaf and numLeaves describe the contiguous leaf range of the
	// node's subtree (leaves are numbered in DFS order).
	firstLeaf int
	numLeaves int
	// failed marks an internal node removed by FailNode; its children
	// were re-parented to the grandparent.
	failed bool
}

// ID returns the node's network-wide identifier (0 is the root).
func (n *Node) ID() int { return n.id }

// Level returns the node's depth (root = 0).
func (n *Node) Level() int { return n.level }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.children) == 0 }

// LeafIndex returns the dense leaf index, or -1 for internal nodes.
func (n *Node) LeafIndex() int { return n.leafIndex }

// Children returns the node's children (do not mutate).
func (n *Node) Children() []*Node { return n.children }

// LeafRange returns the half-open range [lo, hi) of leaf indices covered
// by the node's subtree. Leaves are numbered in DFS order, so every
// subtree covers a contiguous range — which lets multicast splits route
// per-leaf payloads by slicing.
func (n *Node) LeafRange() (lo, hi int) {
	return n.firstLeaf, n.firstLeaf + n.numLeaves
}

// Stats counts overlay traffic. It is a read-side view over the
// network's telemetry counters (see SetTelemetry) — the registry is
// the single source of truth; this struct exists for established
// callers.
type Stats struct {
	Packets int64
	Bytes   int64
}

// netMetrics caches the network's handles into a telemetry registry.
type netMetrics struct {
	packets    *telemetry.Counter
	bytes      *telemetry.Counter
	recoveries *telemetry.Counter
	filterSec  *telemetry.Histogram
	// Frame-integrity ledger: corrupted edge frames caught by the
	// modeled CRC32C trailer, and the retransmits that healed them.
	corruptHops *telemetry.Counter
	retransmits *telemetry.Counter
}

func resolveNetMetrics(h *telemetry.Hub, label string) netMetrics {
	return netMetrics{
		packets:     h.Counter("mrnet_packets_total", "net", label),
		bytes:       h.Counter("mrnet_bytes_total", "net", label),
		recoveries:  h.Counter("mrnet_recoveries_total", "net", label),
		filterSec:   h.Histogram("mrnet_filter_seconds", telemetry.DefSecondsBuckets(), "net", label),
		corruptHops: h.Counter(integrity.MetricDetected, "site", string(faultinject.MRNetHop)),
		retransmits: h.Counter("mrnet_retransmits_total", "net", label),
	}
}

// Network is an instantiated process tree.
type Network struct {
	root   *Node
	nodes  []*Node
	leaves []*Node
	costs  CostModel
	clock  *simclock.Clock

	// topoMu guards tree mutations (FailNode re-parenting) and the
	// telemetry installation below.
	topoMu sync.Mutex
	plan   *faultinject.Plan
	hub    *telemetry.Hub
	parent *telemetry.Span
	m      netMetrics
	// label distinguishes this network's metrics ("net" label) from
	// other trees sharing one hub, e.g. the partitioner's tree vs the
	// cluster tree in one pipeline run.
	label string
	// spans gates per-hop/per-filter span recording: off on the private
	// default hub, on once a run-level hub is installed via SetTelemetry.
	spans bool
	// linkHealth scores each tree edge (keyed by its child endpoint's
	// NIC) so a flapping or frame-corrupting link re-parents the child
	// before the link hard-fails a collective. Nil disables scoring.
	linkHealth *health.Tracker
	// budget meters retransmits; nil grants every retransmit.
	budget *health.Budget
}

// New builds a balanced tree with the given number of leaves and maximum
// fanout, matching the paper's topology policy: no intermediate processes
// while the root can hold every leaf (≤ fanout), otherwise ⌈leaves/fanout⌉
// intermediate processes per level, at most three levels for the scales
// evaluated. A nil clock allocates a private one.
func New(leaves, fanout int, costs CostModel, clock *simclock.Clock) (*Network, error) {
	if leaves < 1 {
		return nil, fmt.Errorf("mrnet: need at least one leaf, got %d", leaves)
	}
	if fanout < 2 {
		return nil, fmt.Errorf("mrnet: fanout must be at least 2, got %d", fanout)
	}
	net := newTree(costs, clock)
	net.build(net.root, leaves, fanout)
	net.clock.Charge("mrnet/startup",
		costs.StartupBase+time.Duration(len(net.nodes))*costs.StartupPerNode)
	return net, nil
}

// newTree returns a network holding only its root, counting on a private
// hub until SetTelemetry installs the run's.
func newTree(costs CostModel, clock *simclock.Clock) *Network {
	if clock == nil {
		clock = simclock.New()
	}
	net := &Network{costs: costs, clock: clock, label: "net", hub: telemetry.New(clock)}
	net.m = resolveNetMetrics(net.hub, net.label)
	net.root = &Node{leafIndex: -1}
	net.nodes = []*Node{net.root}
	return net
}

// addChild attaches a new process under parent.
func (net *Network) addChild(parent *Node) *Node {
	c := &Node{id: len(net.nodes), level: parent.level + 1, parent: parent, leafIndex: -1}
	parent.children = append(parent.children, c)
	net.nodes = append(net.nodes, c)
	return c
}

// addLeaf makes n, childless, the next leaf in DFS order.
func (net *Network) addLeaf(n *Node) {
	n.leafIndex, n.firstLeaf, n.numLeaves = len(net.leaves), len(net.leaves), 1
	net.leaves = append(net.leaves, n)
}

// build attaches the subtree holding `leaves` leaf processes under parent.
func (net *Network) build(parent *Node, leaves, fanout int) {
	parent.firstLeaf = len(net.leaves)
	parent.numLeaves = leaves
	if leaves <= fanout {
		for i := 0; i < leaves; i++ {
			net.addLeaf(net.addChild(parent))
		}
		return
	}
	groups := (leaves + fanout - 1) / fanout
	if groups > fanout {
		groups = fanout // deeper recursion will absorb the rest
	}
	remaining := leaves
	for g := 0; g < groups; g++ {
		// Spread leaves as evenly as possible over the groups.
		share := (remaining + (groups - g) - 1) / (groups - g)
		net.build(net.addChild(parent), share, fanout)
		remaining -= share
	}
}

// Root returns the root node.
func (net *Network) Root() *Node { return net.root }

// NumLeaves returns the number of leaf processes.
func (net *Network) NumLeaves() int { return len(net.leaves) }

// NumInternal returns the number of intermediate (non-root, non-leaf)
// processes — the quantity in Table 1's second column.
func (net *Network) NumInternal() int {
	return len(net.nodes) - len(net.leaves) - 1
}

// NumNodes returns the total number of processes including the root.
func (net *Network) NumNodes() int { return len(net.nodes) }

// Depth returns the number of levels (root-only tree has depth 1).
func (net *Network) Depth() int {
	max := 0
	for _, l := range net.leaves {
		if l.level > max {
			max = l.level
		}
	}
	return max + 1
}

// Clock returns the simulated clock.
func (net *Network) Clock() *simclock.Clock { return net.clock }

// SetTelemetry points the network's metrics and spans at a run-level
// hub, carrying over counts accumulated on the private default hub.
// Per-hop and per-filter spans are recorded only on an installed hub.
// name becomes the "net" metric label distinguishing this tree from
// others on the same hub (empty keeps the current label) — two trees
// installed under one hub with the same label would share counters.
func (net *Network) SetTelemetry(h *telemetry.Hub, name string) {
	if h == nil {
		return
	}
	net.topoMu.Lock()
	defer net.topoMu.Unlock()
	if name != "" {
		net.label = name
	}
	old := net.m
	net.hub = h
	net.m = resolveNetMetrics(h, net.label)
	net.spans = true
	net.m.packets.Add(old.packets.Value())
	net.m.bytes.Add(old.bytes.Value())
	net.m.recoveries.Add(old.recoveries.Value())
	net.m.corruptHops.Add(old.corruptHops.Value())
	net.m.retransmits.Add(old.retransmits.Value())
	net.linkHealth.SetTelemetry(h)
	net.budget.SetTelemetry(h)
}

// SetHealth installs a link-health tracker: every frame crossing a tree
// edge is scored against the NIC of the edge's child endpoint (component
// "nic.<id>", class "nic"). When the tracker quarantines an internal
// node's NIC, the next frame over that edge is converted into a
// NodeFailedError and the collective re-parents the node's children via
// the ordinary FailNode recovery path — a preemptive re-parent, before
// the link degrades into a hard frame loss. Leaf NICs cannot be
// re-parented (leaves hold partition data); a quarantined leaf link
// keeps transmitting and simply keeps paying retransmits. The tracker
// inherits the network's telemetry hub.
func (net *Network) SetHealth(t *health.Tracker) {
	net.topoMu.Lock()
	net.linkHealth = t
	t.SetTelemetry(net.hub)
	net.topoMu.Unlock()
}

// SetRetryBudget meters frame retransmits (site "mrnet.retransmit")
// against a shared token bucket; exhaustion turns the next retransmit
// into a loud failure instead of silent retry churn. Nil removes the cap.
func (net *Network) SetRetryBudget(b *health.Budget) {
	net.topoMu.Lock()
	net.budget = b
	b.SetTelemetry(net.hub)
	net.topoMu.Unlock()
}

// healthState snapshots the link tracker and retry budget.
func (net *Network) healthState() (*health.Tracker, *health.Budget) {
	net.topoMu.Lock()
	defer net.topoMu.Unlock()
	return net.linkHealth, net.budget
}

// NICFaultSite returns the per-link fault site for the tree edge whose
// child endpoint is node id. Rules armed here (error, flap, corrupt,
// delay) afflict only that edge, unlike the shared mrnet.hop site which
// fires across the whole tree.
func NICFaultSite(id int) faultinject.Site {
	return faultinject.Site(fmt.Sprintf("mrnet.nic.%d", id))
}

// nicComponent names the health component for node id's uplink NIC.
func nicComponent(id int) string { return fmt.Sprintf("nic.%d", id) }

// SetTraceParent nests the network's hop/filter spans under s — the
// span of the phase currently using the tree. Pass nil to detach.
func (net *Network) SetTraceParent(s *telemetry.Span) {
	net.topoMu.Lock()
	net.parent = s
	net.topoMu.Unlock()
}

// telemetry snapshots the hub, span parent and metric handles.
func (net *Network) telemetry() (*telemetry.Hub, *telemetry.Span, netMetrics, bool) {
	net.topoMu.Lock()
	defer net.topoMu.Unlock()
	return net.hub, net.parent, net.m, net.spans
}

// Stats returns overlay traffic counters, read back from the telemetry
// registry.
func (net *Network) Stats() Stats {
	net.topoMu.Lock()
	m := net.m
	net.topoMu.Unlock()
	return Stats{Packets: m.packets.Value(), Bytes: m.bytes.Value()}
}

// chargeHop records one payload crossing one tree edge.
func (net *Network) chargeHop(level int, bytes int64) {
	hub, parent, m, spans := net.telemetry()
	cost := net.costs.HopLatency + simclock.BytesDuration(bytes, net.costs.BytesPerSec)
	if spans {
		hub.RecordSim(parent, "mrnet.hop", cost,
			telemetry.Int("level", level), telemetry.Int64("bytes", bytes))
	}
	m.packets.Inc()
	m.bytes.Add(bytes)
	net.clock.Charge(fmt.Sprintf("mrnet/level%d", level), cost)
}

// maxHopRetransmits bounds CRC-triggered retransmits of one frame on
// one edge before the edge is declared bad and the collective fails
// (to be retried a level up or by the phase retry policy).
const maxHopRetransmits = 3

// ErrHopCorrupt reports a tree edge that kept corrupting a frame past
// the retransmit cap.
var ErrHopCorrupt = errors.New("mrnet: frame corrupt after retransmits")

// ErrFrameLost reports a tree edge that kept dropping a frame (link
// error or flap) past the retransmit cap.
var ErrFrameLost = errors.New("mrnet: frame lost after retransmits")

// ErrNICQuarantined is the cause carried by the NodeFailedError that a
// quarantined link raises to trigger preemptive re-parenting.
var ErrNICQuarantined = errors.New("mrnet: link quarantined by health tracker")

// quarantinedLink converts a quarantined child NIC into the failure of
// the child itself, steering the collective into the existing FailNode
// re-parenting machinery before the link hard-fails a frame. Leaf links
// return nil: leaves hold partition data and cannot be re-parented away.
func quarantinedLink(tracker *health.Tracker, c *Node) error {
	if tracker == nil || c.IsLeaf() || !tracker.Quarantined(nicComponent(c.id)) {
		return nil
	}
	return &NodeFailedError{ID: c.id, cause: ErrNICQuarantined}
}

// transmitHop models one checksummed frame crossing the tree edge whose
// child endpoint is c (frames travel child->parent in Reduce and
// parent->child in Multicast; either way the edge is named by c's NIC).
//
// Two fault sites afflict the frame: the shared mrnet.hop site and the
// per-link NICFaultSite(c.id). A corrupt rule means the frame's bits
// flipped on the wire, the CRC32C trailer catches it at the receiver,
// and the frame is retransmitted — charging the edge again. An error or
// flap rule at the NIC site means the frame was dropped outright and is
// likewise retransmitted. In-process payloads move by reference, so the
// flip itself is not destructive; what is real is the detection
// accounting, the retransmit cost, and the health evidence: every
// outcome feeds the link tracker, and a quarantined internal NIC turns
// into a NodeFailedError so the child re-parents preemptively. Each
// retransmit beyond the first transmission spends a retry-budget token;
// denial fails the frame loudly.
func (net *Network) transmitHop(c *Node, bytes int64) error {
	plan := net.faultPlan()
	tracker, budget := net.healthState()
	site := NICFaultSite(c.id)
	comp := nicComponent(c.id)
	cost := net.costs.HopLatency + simclock.BytesDuration(bytes, net.costs.BytesPerSec)
	for attempt := 0; ; attempt++ {
		if ferr := plan.Check(site); ferr != nil {
			if faultinject.IsFatal(ferr) {
				return fmt.Errorf("mrnet: link to node %d: %w", c.id, ferr)
			}
			// The frame crossed the wire and was lost: the edge is
			// still charged, the sender times out and retransmits.
			net.chargeHop(c.level, bytes)
			hub, parent, m, _ := net.telemetry()
			m.retransmits.Inc()
			hub.Event(parent, "mrnet.frame_lost",
				telemetry.Int("node", c.id),
				telemetry.Int("level", c.level),
				telemetry.Bool("healed", attempt+1 < maxHopRetransmits))
			tracker.ObserveError(comp)
			if nf := quarantinedLink(tracker, c); nf != nil {
				return nf
			}
			if attempt+1 >= maxHopRetransmits {
				return fmt.Errorf("mrnet: link to node %d: %w", c.id, ErrFrameLost)
			}
			if !budget.Take("mrnet.retransmit") {
				return fmt.Errorf("mrnet: link to node %d retransmit denied: %w", c.id, health.ErrBudgetExhausted)
			}
			continue
		}
		corr := plan.CorruptCheck(faultinject.MRNetHop, bytes)
		detSite := faultinject.MRNetHop
		if corr == nil {
			corr = plan.CorruptCheck(site, bytes)
			detSite = site
		}
		net.chargeHop(c.level, bytes)
		if corr == nil {
			tracker.ObserveSuccess(comp, cost)
			return quarantinedLink(tracker, c)
		}
		hub, parent, m, _ := net.telemetry()
		if detSite == faultinject.MRNetHop {
			m.corruptHops.Inc()
		} else {
			// NIC-localized corruption keeps its own detection label so
			// the integrity ledger balances per site.
			hub.Counter(integrity.MetricDetected, "site", string(detSite)).Inc()
		}
		m.retransmits.Inc()
		hub.Event(parent, "integrity.corruption.detected",
			telemetry.String("site", string(detSite)),
			telemetry.Int("node", c.id),
			telemetry.Int("level", c.level),
			telemetry.Int64("offset", corr.Offset),
			telemetry.Bool("healed", attempt+1 < maxHopRetransmits))
		tracker.ObserveCorruption(comp)
		if nf := quarantinedLink(tracker, c); nf != nil {
			return nf
		}
		if attempt+1 >= maxHopRetransmits {
			return fmt.Errorf("mrnet: link to node %d: %w", c.id, ErrHopCorrupt)
		}
		if !budget.Take("mrnet.retransmit") {
			return fmt.Errorf("mrnet: link to node %d retransmit denied: %w", c.id, health.ErrBudgetExhausted)
		}
	}
}

// SetFaultPlan installs the fault plan consulted at the mrnet.hop site
// (per tree-edge transfer, error rules and corrupt rules) and the
// mrnet.node site (internal process crash, recovered by re-parenting).
// Set it before starting collectives; a nil plan disables injection.
func (net *Network) SetFaultPlan(p *faultinject.Plan) {
	net.topoMu.Lock()
	net.plan = p
	net.topoMu.Unlock()
}

// Recoveries returns how many internal-node failures the network has
// recovered from (via FailNode re-parenting).
func (net *Network) Recoveries() int64 {
	net.topoMu.Lock()
	m := net.m
	net.topoMu.Unlock()
	return m.recoveries.Value()
}

// NodeFailedError reports the simulated crash of an internal process.
// Collectives catch it one level up, re-parent the failed node's
// children to their grandparent, and retry the affected subtree.
type NodeFailedError struct {
	ID    int
	cause error
}

func (e *NodeFailedError) Error() string {
	return fmt.Sprintf("mrnet: internal node %d failed: %v", e.ID, e.cause)
}

func (e *NodeFailedError) Unwrap() error { return e.cause }

// FailNode removes an internal (non-root, non-leaf) process from the
// tree, re-parenting its children to their grandparent — the MRNet
// failure recovery model. Leaves are numbered in DFS order and the
// splice preserves child order, so every surviving subtree keeps its
// leaf range; only depths shrink. Each re-parented child is charged
// ReconnectLatency on the simulated clock. Failing an already-failed
// node is a no-op (concurrent collectives may race to recover the same
// crash).
func (net *Network) FailNode(id int) error {
	net.topoMu.Lock()
	defer net.topoMu.Unlock()
	if id < 0 || id >= len(net.nodes) {
		return fmt.Errorf("mrnet: no node %d", id)
	}
	n := net.nodes[id]
	if n.failed {
		return nil
	}
	if n.parent == nil {
		return fmt.Errorf("mrnet: cannot fail the root (the front-end is not recoverable)")
	}
	if n.IsLeaf() {
		return fmt.Errorf("mrnet: cannot fail leaf node %d (leaves hold partition data)", id)
	}
	p := n.parent
	idx := -1
	for i, c := range p.children {
		if c == n {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("mrnet: node %d not among its parent's children", id)
	}
	spliced := make([]*Node, 0, len(p.children)-1+len(n.children))
	spliced = append(spliced, p.children[:idx]...)
	spliced = append(spliced, n.children...)
	spliced = append(spliced, p.children[idx+1:]...)
	p.children = spliced
	var promote func(*Node)
	promote = func(m *Node) {
		m.level--
		for _, c := range m.children {
			promote(c)
		}
	}
	for _, c := range n.children {
		c.parent = p
		promote(c)
	}
	net.clock.Charge("mrnet/reconnect",
		time.Duration(len(n.children))*net.costs.ReconnectLatency)
	reparented := len(n.children)
	n.failed = true
	n.parent = nil
	n.children = nil
	// topoMu is held: use the handles directly rather than telemetry().
	net.m.recoveries.Inc()
	net.hub.Event(net.parent, "mrnet.node_failed",
		telemetry.Int("node", id), telemetry.Int("reparented", reparented))
	return nil
}

// childrenOf snapshots a node's child list under the topology lock.
func (net *Network) childrenOf(n *Node) []*Node {
	net.topoMu.Lock()
	defer net.topoMu.Unlock()
	return append([]*Node(nil), n.children...)
}

func (net *Network) faultPlan() *faultinject.Plan {
	net.topoMu.Lock()
	defer net.topoMu.Unlock()
	return net.plan
}

// opState is the shared state of one collective operation: the first
// fatal error — or the caller's context expiring — cancels the whole
// operation so sibling subtrees stop charging the simulated clock for
// work that would not happen on the real tree.
type opState struct {
	ctx       context.Context
	cancelled atomic.Bool
	mu        sync.Mutex
	err       error
}

func (o *opState) fail(err error) {
	o.mu.Lock()
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
	o.cancelled.Store(true)
}

// failf is fail with the error built in place; it returns what it recorded.
func (o *opState) failf(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	o.fail(err)
	return err
}

func (o *opState) aborted() bool {
	return o.cancelled.Load() || o.ctx.Err() != nil
}

func (o *opState) firstErr() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// errAborted marks subtrees cut short by a fatal error elsewhere in the
// collective; the originating error is reported instead.
var errAborted = errors.New("mrnet: collective aborted by failure elsewhere in the tree")

// finish maps a collective's outcome to the user-visible error. A
// cancelled or deadline-expired context takes precedence over the
// internal abort sentinel so callers can errors.Is-match it.
func (o *opState) finish(err error) error {
	if err == nil {
		return nil
	}
	if first := o.firstErr(); first != nil {
		return first
	}
	if cerr := o.ctx.Err(); cerr != nil {
		return fmt.Errorf("mrnet: collective aborted: %w", cerr)
	}
	return err
}

// Sizer reports the wire size of a payload for the cost model. A nil
// Sizer charges only per-hop latency.
type Sizer[T any] func(T) int64

func (s Sizer[T]) of(v T) int64 {
	if s == nil {
		return 0
	}
	return s(v)
}

// crossEdge carries one payload of the given size over the edge whose child
// endpoint is c, from → to naming the direction in errors. Nothing moves
// once the operation is aborted. A NodeFailedError — the link's quarantine
// re-parenting c preemptively — is returned as it is and fails nothing; any
// other failure fails the operation.
func (net *Network) crossEdge(from, to, c *Node, bytes int64, op *opState) error {
	if op.aborted() {
		return errAborted
	}
	ferr := net.faultPlan().Check(faultinject.MRNetHop)
	if ferr == nil {
		ferr = net.transmitHop(c, bytes)
	}
	var nf *NodeFailedError
	if ferr == nil || errors.As(ferr, &nf) {
		return ferr
	}
	return op.failf("mrnet: hop from node %d to node %d: %w", from.id, to.id, ferr)
}

// reparentCrashed settles a round of n's children, given each one's error:
// the first fatal one is returned; the children that crashed (a
// NodeFailedError) are removed from the tree, theirs re-parented to n, and
// retry says the round must run again over the new child list — finite
// internal nodes bound the number of rounds.
func (net *Network) reparentCrashed(errs []error, op *opState) (retry bool, err error) {
	var crashed []int
	for _, err := range errs {
		var nf *NodeFailedError
		if errors.As(err, &nf) {
			crashed = append(crashed, nf.ID)
		} else if err != nil && !errors.Is(err, errAborted) {
			return false, err
		}
	}
	if op.aborted() {
		return false, errAborted
	}
	for _, id := range crashed {
		if err := net.FailNode(id); err != nil {
			op.fail(err)
			return false, err
		}
	}
	return len(crashed) > 0, nil
}

// Reduce performs an upstream reduction: leafFn runs at every leaf (in
// parallel), combine runs at every internal node and at the root over its
// children's results, ordered by child position. The root's combined value
// is returned.
//
// The first fatal error cancels the whole collective (unstarted subtree
// work is skipped and charges nothing). An injected internal-node crash
// (mrnet.node fault site) is not fatal: the failed node's children are
// re-parented to their grandparent and the affected subtree is
// re-reduced, with already-transferred sibling results reused — leafFn
// and combine must therefore be safe to re-execute (DBSCAN's phases are
// deterministic and side-effect-free, so they are). A faultinject fatal
// fault is never recovered: it aborts the collective like a caller
// cancellation.
//
// ctx cancellation (or deadline expiry) aborts the collective at the
// next hop boundary: in-flight leaf work finishes, but no further
// payloads travel and the returned error wraps ctx.Err().
func Reduce[T any](ctx context.Context, net *Network, leafFn func(leaf int) (T, error), combine func(n *Node, in []T) (T, error), size Sizer[T]) (T, error) {
	op := &opState{ctx: ctx}
	v, err := reduceAt(net, net.root, leafFn, combine, size, op)
	if err != nil {
		var zero T
		return zero, op.finish(err)
	}
	return v, nil
}

func reduceAt[T any](net *Network, n *Node, leafFn func(int) (T, error), combine func(*Node, []T) (T, error), size Sizer[T], op *opState) (T, error) {
	var zero T
	if op.aborted() {
		return zero, errAborted
	}
	if n.IsLeaf() {
		v, err := leafFn(n.leafIndex)
		if err != nil {
			return zero, op.failf("mrnet: leaf %d: %w", n.leafIndex, err)
		}
		return v, nil
	}
	if n.parent != nil { // internal, non-root: subject to crash injection
		if ferr := net.faultPlan().Check(faultinject.MRNetNode); ferr != nil {
			if faultinject.IsFatal(ferr) {
				return zero, op.failf("mrnet: node %d: %w", n.id, ferr)
			}
			return zero, &NodeFailedError{ID: n.id, cause: ferr}
		}
	}
	// done caches child results already transferred to this node; on a
	// child crash only the re-parented (and not-yet-reduced) subtrees
	// re-execute.
	done := make(map[*Node]T)
	var doneMu sync.Mutex
	for {
		children := net.childrenOf(n)
		results := make([]T, len(children))
		errs := make([]error, len(children))
		var wg sync.WaitGroup
		for i, c := range children {
			doneMu.Lock()
			v, ok := done[c]
			doneMu.Unlock()
			if ok {
				results[i] = v
				continue
			}
			wg.Add(1)
			go func(i int, c *Node) {
				defer wg.Done()
				v, err := reduceAt(net, c, leafFn, combine, size, op)
				if err == nil {
					err = net.crossEdge(c, n, c, size.of(v), op)
				}
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = v
				doneMu.Lock()
				done[c] = v
				doneMu.Unlock()
			}(i, c)
		}
		wg.Wait()
		if retry, err := net.reparentCrashed(errs, op); err != nil {
			return zero, err
		} else if retry {
			continue
		}
		hub, parent, m, spans := net.telemetry()
		var sp *telemetry.Span
		if spans {
			sp = hub.Start(parent, "mrnet.filter", telemetry.Int("node", n.id))
		}
		fstart := time.Now()
		v, err := combine(n, results)
		m.filterSec.Observe(time.Since(fstart).Seconds())
		sp.End()
		if err != nil {
			return zero, op.failf("mrnet: filter at node %d: %w", n.id, err)
		}
		return v, nil
	}
}

// Multicast distributes a payload from the root to every leaf. split, if
// non-nil, runs at every non-leaf node and must return one payload per
// child (it may slice the payload to route data); a nil split broadcasts
// the same value. deliver runs at every leaf, in parallel.
//
// Failure semantics match Reduce: fatal errors and ctx cancellation
// abort the collective at the next hop boundary, injected internal-node
// crashes re-parent and retry the affected subtree (split is re-invoked
// over the new child list, deliver may re-run at leaves under a crashed
// node — both must be idempotent).
func Multicast[T any](ctx context.Context, net *Network, payload T, split func(n *Node, in T) ([]T, error), deliver func(leaf int, v T) error, size Sizer[T]) error {
	op := &opState{ctx: ctx}
	return op.finish(multicastAt(net, net.root, payload, split, deliver, size, op))
}

func multicastAt[T any](net *Network, n *Node, payload T, split func(*Node, T) ([]T, error), deliver func(int, T) error, size Sizer[T], op *opState) error {
	if op.aborted() {
		return errAborted
	}
	if n.IsLeaf() {
		if err := deliver(n.leafIndex, payload); err != nil {
			return op.failf("mrnet: leaf %d: %w", n.leafIndex, err)
		}
		return nil
	}
	if n.parent != nil { // internal, non-root: subject to crash injection
		if ferr := net.faultPlan().Check(faultinject.MRNetNode); ferr != nil {
			if faultinject.IsFatal(ferr) {
				return op.failf("mrnet: node %d: %w", n.id, ferr)
			}
			return &NodeFailedError{ID: n.id, cause: ferr}
		}
	}
	delivered := make(map[*Node]bool)
	var deliveredMu sync.Mutex
	for {
		children := net.childrenOf(n)
		parts := make([]T, len(children))
		if split != nil {
			out, err := split(n, payload)
			if err != nil {
				return op.failf("mrnet: split at node %d: %w", n.id, err)
			}
			if len(out) != len(children) {
				return op.failf("mrnet: split at node %d returned %d payloads for %d children", n.id, len(out), len(children))
			}
			copy(parts, out)
		} else {
			for i := range parts {
				parts[i] = payload
			}
		}
		errs := make([]error, len(children))
		var wg sync.WaitGroup
		for i, c := range children {
			deliveredMu.Lock()
			skip := delivered[c]
			deliveredMu.Unlock()
			if skip {
				continue
			}
			wg.Add(1)
			go func(i int, c *Node) {
				defer wg.Done()
				err := net.crossEdge(n, c, c, size.of(parts[i]), op)
				if err == nil {
					err = multicastAt(net, c, parts[i], split, deliver, size, op)
				}
				if err != nil {
					errs[i] = err
					return
				}
				deliveredMu.Lock()
				delivered[c] = true
				deliveredMu.Unlock()
			}(i, c)
		}
		wg.Wait()
		if retry, err := net.reparentCrashed(errs, op); err != nil || !retry {
			return err
		}
	}
}
