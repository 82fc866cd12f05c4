package mrnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// This file implements a real-socket instantiation of the overlay: every
// tree node is a goroutine "process" owning actual TCP connections to its
// parent and children over loopback, with length-prefixed frames. The
// in-process Network is the fast simulation used by the pipeline; the
// TCPNetwork demonstrates that the same tree protocol runs over a real
// transport, as MRNet does on a cluster.
//
// The protocol is deliberately MRNet-shaped: downstream frames fan out
// from the root (multicast / operation start), upstream frames are
// combined at every internal node by a filter before continuing toward
// the root.
//
// Every message on an edge is one checksummed frame of internal/integrity
// (layout, NACK protocol and typed errors: docs/FORMATS.md, "Checksummed
// frame") with the parameters below. NACKs are payload-free control frames
// and are never injected with corruption (modeling the link layer's
// protected control channel).

// frame types.
const (
	frameDown  = 1 // payload travelling root -> leaves
	frameUp    = 2 // payload travelling leaves -> root
	frameError = 3 // error travelling toward the root
	frameNack  = 4 // checksum reject: resend your last frame
	frameHello = 5 // child handshake carrying its node ID
)

const (
	frameVersion = 1
	// maxFrame bounds a frame payload (16 MiB) to catch protocol corruption.
	maxFrame = 16 << 20
	// maxFrameRetries bounds the NACK/retransmit dance for one frame, the
	// same on both ends of an edge: a link that keeps corrupting past this
	// budget fails the operation.
	maxFrameRetries = 3
)

// tcpFrame is the plane every edge speaks.
var tcpFrame = integrity.Frame{
	Plane: "mrnet.tcp", Magic: [2]byte{'M', 'R'}, Version: frameVersion,
	Limit: maxFrame, Nack: frameNack, Retries: maxFrameRetries,
}

// TCPHandlers are the application callbacks of a TCP overlay instance.
type TCPHandlers struct {
	// Leaf runs at every leaf when a downstream frame arrives: it
	// receives the downstream payload and returns the leaf's upstream
	// contribution.
	Leaf func(leaf int, down []byte) ([]byte, error)
	// Filter runs at every internal node (and the root) to combine the
	// upstream payloads of its children, ordered by child position.
	// Payloads handed to either handler sit in an edge's receive buffer:
	// they are valid until the handler returns, and a result must not
	// alias them.
	Filter func(node *Node, in [][]byte) ([]byte, error)
}

// TCPNetwork is a process tree over real TCP connections.
type TCPNetwork struct {
	tree     *Network
	handlers TCPHandlers

	mu    sync.Mutex // one collective operation at a time
	nodes []*tcpNode

	// stateMu guards closed, the fault plan and the telemetry hub.
	stateMu sync.Mutex
	closed  bool
	plan    *faultinject.Plan
	hub     *telemetry.Hub

	// Frame-integrity ledger (atomics so they are readable without the
	// hub): corrupted frames caught by the CRC trailer, flips that died
	// unread with their connection, and the retransmits triggered.
	detected    atomic.Int64
	masked      atomic.Int64
	retransmits atomic.Int64
}

// tcpNode is one "process": its connection to the parent and its accepted
// child connections.
type tcpNode struct {
	node     *Node
	parent   *integrity.Link   // nil at the root
	children []*integrity.Link // index-aligned with node.Children()
}

// NewTCP builds a tree with the given leaf count and fanout where every
// edge is a TCP connection on the loopback interface. Handlers must be
// provided before any operation runs.
func NewTCP(leaves, fanout int, handlers TCPHandlers) (*TCPNetwork, error) {
	if handlers.Leaf == nil || handlers.Filter == nil {
		return nil, errors.New("mrnet: TCP overlay requires Leaf and Filter handlers")
	}
	tree, err := New(leaves, fanout, CostModel{}, nil)
	if err != nil {
		return nil, err
	}
	t := &TCPNetwork{tree: tree, handlers: handlers, nodes: make([]*tcpNode, tree.NumNodes())}
	for _, n := range tree.nodes {
		t.nodes[n.id] = &tcpNode{node: n}
	}
	if err := t.connect(); err != nil {
		t.Close()
		return nil, err
	}
	for _, tn := range t.nodes {
		go t.serve(tn)
	}
	return t, nil
}

// SetFaultPlan installs the fault plan consulted at the mrnet.frame
// site on every frame send: error rules kill the sender mid-frame (the
// peer sees a torn frame), corrupt rules flip a bit of the wire bytes
// (the peer's CRC check catches it and NACKs). Install before running
// operations; a nil plan disables injection.
func (t *TCPNetwork) SetFaultPlan(p *faultinject.Plan) {
	t.stateMu.Lock()
	t.plan = p
	t.stateMu.Unlock()
}

// SetTelemetry mirrors the overlay's integrity counters into a run
// hub: integrity_corruptions_detected{site=mrnet.frame} and
// mrnet_frame_retransmits_total.
func (t *TCPNetwork) SetTelemetry(h *telemetry.Hub) {
	t.stateMu.Lock()
	t.hub = h
	t.stateMu.Unlock()
}

// FrameIntegrity reports the overlay's corruption ledger: CRC-detected
// frames, flips masked by a dead connection, and the retransmits that
// healed detections.
func (t *TCPNetwork) FrameIntegrity() (detected, masked, retransmits int64) {
	return t.detected.Load(), t.masked.Load(), t.retransmits.Load()
}

func (t *TCPNetwork) state() (*faultinject.Plan, *telemetry.Hub, bool) {
	t.stateMu.Lock()
	defer t.stateMu.Unlock()
	return t.plan, t.hub, t.closed
}

// link returns nodeID's end of an edge. The fault plan is consulted at
// the mrnet.frame site on every frame sent (see SetFaultPlan), the hello
// and a node's report of a corrupting down link excepted. Both
// ends of an edge book on this overlay, so a flip is counted where it is
// verified — by the receiver's Detected — and the sender only books the
// ones that die with a failed write.
func (t *TCPNetwork) link(conn net.Conn, nodeID int) *integrity.Link {
	return tcpFrame.NewLink(conn, integrity.Hooks{
		OnSend: func(n int) (*faultinject.Corruption, error) {
			plan, _, _ := t.state()
			if err := plan.Check(faultinject.MRNetFrame); err != nil {
				return nil, err
			}
			return plan.CorruptCheck(faultinject.MRNetFrame, int64(n)), nil
		},
		Detected: func(healed bool) {
			t.detected.Add(1)
			_, hub, _ := t.state()
			hub.Counter(integrity.MetricDetected, "site", string(faultinject.MRNetFrame)).Inc()
			hub.Event(nil, "integrity.corruption.detected", telemetry.String("site", string(faultinject.MRNetFrame)),
				telemetry.Int("node", nodeID), telemetry.Bool("healed", healed))
		},
		Retransmit: func() {
			t.retransmits.Add(1)
			_, hub, _ := t.state()
			hub.Counter("mrnet_frame_retransmits_total").Inc()
		},
		Masked: func(faultinject.Site) {
			t.masked.Add(1)
			_, hub, _ := t.state()
			hub.Counter(integrity.MetricMasked, "site", string(faultinject.MRNetFrame)).Inc()
		},
	})
}

// send writes payload as one frame of the given type.
func send(l *integrity.Link, ftype byte, payload []byte) error {
	return l.Send(ftype, append(l.Begin(len(payload)), payload...))
}

// connect wires parent-child edges one at a time: the child dials its
// parent's listener and identifies itself with a hello frame carrying its
// node ID, the parent accepts and checks it. The hello is a regular
// protocol frame, so a peer from another protocol revision is rejected
// with a ProtocolError at handshake time instead of failing obscurely
// mid-operation.
func (t *TCPNetwork) connect() error {
	for _, tn := range t.nodes {
		n := tn.node
		if n.IsLeaf() {
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("mrnet: listen for node %d: %w", n.id, err)
		}
		for _, c := range n.children {
			if err := t.adopt(ln, tn, c); err != nil {
				ln.Close()
				return fmt.Errorf("mrnet: node %d adopting child %d: %w", n.id, c.id, err)
			}
		}
		ln.Close()
	}
	return nil
}

// adopt makes the edge between tn and its next child c. Both ends are
// recorded as soon as they exist, so Close reaches them on any failure.
func (t *TCPNetwork) adopt(ln net.Listener, tn *tcpNode, c *Node) error {
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	child := t.link(conn, c.id)
	t.nodes[c.id].parent = child
	if err := child.SendClean(frameHello, binary.LittleEndian.AppendUint32(child.Begin(4), uint32(c.id))); err != nil {
		return err
	}
	if conn, err = ln.Accept(); err != nil {
		return err
	}
	parent := t.link(conn, tn.node.id)
	tn.children = append(tn.children, parent)
	_, hello, err := parent.Recv(frameHello)
	if err == nil && (len(hello) != 4 || int(binary.LittleEndian.Uint32(hello)) != c.id) {
		err = fmt.Errorf("hello %x does not name the child", hello)
	}
	return err
}

// serve is a node's process loop: wait for a downstream frame, run the
// subtree's share of the operation, send the combined result upstream.
func (t *TCPNetwork) serve(tn *tcpNode) {
	n := tn.node
	if n.id == 0 {
		return // root has no serve loop; Reduce operates it directly
	}
	for {
		_, down, err := tn.parent.Recv(frameDown)
		if errors.Is(err, integrity.ErrChecksum) {
			// The down link is persistently corrupting: surface it to
			// the parent and stay alive for the next operation.
			msg := err.Error()
			_ = tn.parent.SendClean(frameError, append(tn.parent.Begin(len(msg)), msg...))
			continue
		}
		if err != nil {
			// Closed or torn is shutdown; a parent sending anything but
			// an operation start is not one. Either way the edge is done.
			tn.parent.Conn.Close()
			return
		}
		up, err := t.runSubtree(tn, down)
		if err != nil {
			_ = send(tn.parent, frameError, []byte(err.Error()))
			continue
		}
		if err := send(tn.parent, frameUp, up); err != nil {
			return
		}
	}
}

// runSubtree executes one operation in n's subtree: forward downstream to
// children, gather their upstream frames, combine with the filter (or run
// the leaf handler).
func (t *TCPNetwork) runSubtree(tn *tcpNode, down []byte) ([]byte, error) {
	n := tn.node
	if n.IsLeaf() {
		out, err := t.handlers.Leaf(n.leafIndex, down)
		if err != nil {
			return nil, fmt.Errorf("leaf %d: %w", n.leafIndex, err)
		}
		return out, nil
	}
	for _, child := range tn.children {
		if err := send(child, frameDown, down); err != nil {
			return nil, fmt.Errorf("node %d fanout: %w", n.id, err)
		}
	}
	parts := make([][]byte, len(tn.children))
	for i, child := range tn.children {
		ftype, payload, err := child.Recv(frameUp, frameError)
		if err != nil {
			return nil, fmt.Errorf("node %d gathering child %d: %w", n.id, i, err)
		}
		if ftype == frameError {
			return nil, errors.New(string(payload))
		}
		parts[i] = payload
	}
	out, err := t.handlers.Filter(n, parts)
	if err != nil {
		return nil, fmt.Errorf("filter at node %d: %w", n.id, err)
	}
	return out, nil
}

// Reduce runs one collective operation: the downstream payload is
// multicast to every leaf, each leaf's Leaf handler produces an upstream
// payload, and Filter combines payloads at every internal level. The
// root's combined payload is returned.
func (t *TCPNetwork) Reduce(down []byte) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, _, closed := t.state(); closed {
		return nil, errors.New("mrnet: TCP overlay closed")
	}
	return t.runSubtree(t.nodes[0], down)
}

// Tree exposes the underlying topology (for assertions and fan-out info).
func (t *TCPNetwork) Tree() *Network { return t.tree }

// Close tears the overlay down; in-flight operations fail.
func (t *TCPNetwork) Close() {
	t.stateMu.Lock()
	defer t.stateMu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	for _, tn := range t.nodes {
		if tn.parent != nil {
			tn.parent.Conn.Close()
		}
		for _, c := range tn.children {
			c.Conn.Close()
		}
	}
}
