package mrnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
// Wire format (one frame):
//
//	[2B magic "MR"][1B version][1B type][4B LE payload len][4B LE CRC32C][payload]
//
// The magic + version bytes reject peers speaking another protocol
// revision with a clear ProtocolError instead of a garbled decode. The
// CRC32C trailer covers the payload: a receiver that computes a
// different sum answers with a NACK frame, and the sender retransmits —
// bounded by maxFrameRetries, after which the exchange fails loudly.
// NACKs themselves are payload-free control frames and are never
// injected with corruption (modeling the link layer's protected control
// channel).

// frame types.
const (
	frameDown  = 1 // payload travelling root -> leaves
	frameUp    = 2 // payload travelling leaves -> root
	frameError = 3 // error travelling toward the root
	frameNack  = 4 // checksum reject: resend your last frame
	frameHello = 5 // child handshake carrying its node ID
)

// Frame header layout.
const (
	frameMagic   = "MR"
	frameVersion = 1
	frameHdrLen  = 12
)

// maxFrame bounds a frame payload (16 MiB) to catch protocol corruption.
const maxFrame = 16 << 20

// maxFrameRetries bounds the NACK/retransmit dance for one frame: a
// link that keeps corrupting past this budget fails the operation.
const maxFrameRetries = 3

// Typed frame errors, shared with the integrity package so errors.Is
// works across planes:
//
//   - ErrFrameTorn: the connection died mid-frame (peer crash) — the
//     frame is incomplete, not wrong.
//   - ErrFrameTooLarge: the length field exceeds maxFrame — a corrupted
//     header or a hostile peer, never retried.
//   - ErrFrameCorrupt: the payload failed its CRC32C — retransmitted up
//     to maxFrameRetries times before surfacing.
var (
	ErrFrameTorn     = integrity.ErrTorn
	ErrFrameTooLarge = integrity.ErrTooLarge
	ErrFrameCorrupt  = integrity.ErrChecksum
)

// TCPHandlers are the application callbacks of a TCP overlay instance.
type TCPHandlers struct {
	// Leaf runs at every leaf when a downstream frame arrives: it
	// receives the downstream payload and returns the leaf's upstream
	// contribution.
	Leaf func(leaf int, down []byte) ([]byte, error)
	// Filter runs at every internal node (and the root) to combine the
	// upstream payloads of its children, ordered by child position.
	Filter func(node *Node, in [][]byte) ([]byte, error)
}

// TCPNetwork is a process tree over real TCP connections.
type TCPNetwork struct {
	tree     *Network
	handlers TCPHandlers

	mu      sync.Mutex // one collective operation at a time
	nodes   []*tcpNode
	closed  bool
	closeMu sync.Mutex

	// planMu guards the fault plan and telemetry hub below.
	planMu sync.Mutex
	plan   *faultinject.Plan
	hub    *telemetry.Hub

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
	parent   *frameConn   // nil at the root
	children []*frameConn // index-aligned with node.Children()
}

// frameConn wraps one edge's connection with the last frame sent on it,
// so a NACK from the peer can be answered with a retransmit. Each
// frameConn is used by a single node goroutine at a time.
type frameConn struct {
	net  *TCPNetwork
	conn net.Conn
	// last frame sent, pre-corruption: retransmits resend the clean
	// payload (the flip happened on the wire, not in the send buffer).
	lastType    byte
	lastPayload []byte
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
	t := &TCPNetwork{
		tree:     tree,
		handlers: handlers,
	}
	t.nodes = make([]*tcpNode, tree.NumNodes())
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
	t.planMu.Lock()
	t.plan = p
	t.planMu.Unlock()
}

// SetTelemetry mirrors the overlay's integrity counters into a run
// hub: integrity_corruptions_detected{site=mrnet.frame} and
// mrnet_frame_retransmits_total.
func (t *TCPNetwork) SetTelemetry(h *telemetry.Hub) {
	t.planMu.Lock()
	t.hub = h
	t.planMu.Unlock()
}

func (t *TCPNetwork) faultPlan() *faultinject.Plan {
	t.planMu.Lock()
	defer t.planMu.Unlock()
	return t.plan
}

// FrameIntegrity reports the overlay's corruption ledger: CRC-detected
// frames, flips masked by a dead connection, and the retransmits that
// healed detections.
func (t *TCPNetwork) FrameIntegrity() (detected, masked, retransmits int64) {
	return t.detected.Load(), t.masked.Load(), t.retransmits.Load()
}

// noteMasked records a flip that no verifier ever saw.
func (t *TCPNetwork) noteMasked() {
	t.masked.Add(1)
	t.planMu.Lock()
	hub := t.hub
	t.planMu.Unlock()
	hub.Counter(integrity.MetricMasked, "site", string(faultinject.MRNetFrame)).Inc()
}

// noteDetected records one CRC-caught frame corruption.
func (t *TCPNetwork) noteDetected(nodeID int, healed bool) {
	t.detected.Add(1)
	t.planMu.Lock()
	hub := t.hub
	t.planMu.Unlock()
	hub.Counter(integrity.MetricDetected, "site", string(faultinject.MRNetFrame)).Inc()
	hub.Event(nil, "integrity.corruption.detected",
		telemetry.String("site", string(faultinject.MRNetFrame)),
		telemetry.Int("node", nodeID),
		telemetry.Bool("healed", healed))
}

// connect wires parent-child edges: every internal node listens, its
// children dial in and identify themselves with a hello frame carrying
// their node ID. The hello is a regular protocol frame, so a peer from
// another protocol revision is rejected with a ProtocolError at
// handshake time instead of failing obscurely mid-operation.
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
		tn.children = make([]*frameConn, len(n.children))
		addr := ln.Addr().String()

		var wg sync.WaitGroup
		var acceptErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range n.children {
				conn, err := ln.Accept()
				if err != nil {
					acceptErr = err
					return
				}
				ftype, payload, err := readFrame(conn)
				if err != nil {
					acceptErr = fmt.Errorf("reading hello: %w", err)
					return
				}
				if ftype != frameHello || len(payload) != 4 {
					acceptErr = fmt.Errorf("bad hello frame (type %d, %d bytes)", ftype, len(payload))
					return
				}
				childID := int(binary.LittleEndian.Uint32(payload))
				placed := false
				for i, c := range n.children {
					if c.id == childID {
						tn.children[i] = &frameConn{net: t, conn: conn}
						placed = true
						break
					}
				}
				if !placed {
					acceptErr = fmt.Errorf("unexpected child %d at node %d", childID, n.id)
					return
				}
			}
		}()
		for _, c := range n.children {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				ln.Close()
				return fmt.Errorf("mrnet: child %d dialing node %d: %w", c.id, n.id, err)
			}
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], uint32(c.id))
			if err := writeFrame(conn, frameHello, hello[:]); err != nil {
				ln.Close()
				return fmt.Errorf("mrnet: child %d hello: %w", c.id, err)
			}
			t.nodes[c.id].parent = &frameConn{net: t, conn: conn}
		}
		wg.Wait()
		ln.Close()
		if acceptErr != nil {
			return fmt.Errorf("mrnet: accepting children of node %d: %w", n.id, acceptErr)
		}
	}
	return nil
}

// encodeFrame assembles a full wire frame: header (magic, version,
// type, length, CRC32C of the payload) followed by the payload.
func encodeFrame(ftype byte, payload []byte) []byte {
	buf := make([]byte, frameHdrLen+len(payload))
	copy(buf, frameMagic)
	buf[2] = frameVersion
	buf[3] = ftype
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[8:12], integrity.Checksum(payload))
	copy(buf[frameHdrLen:], payload)
	return buf
}

// writeFrame emits one clean frame with no fault injection — used for
// the handshake and for NACK control frames.
func writeFrame(w io.Writer, ftype byte, payload []byte) error {
	_, err := w.Write(encodeFrame(ftype, payload))
	return err
}

// send transmits a frame on the edge, remembering it for retransmit,
// and consults the fault plan: an error rule kills the sender mid-frame
// (half the frame hits the wire, then the connection closes — the
// peer's read tears); a corrupt rule flips one wire bit downstream of
// the CRC computation, to be caught by the peer.
func (fc *frameConn) send(ftype byte, payload []byte) error {
	fc.lastType, fc.lastPayload = ftype, payload
	return fc.transmit(ftype, payload)
}

// resend retransmits the last frame (clean bytes, fresh injection
// consult — a transient wire fault does not persist in the buffer).
func (fc *frameConn) resend() error {
	return fc.transmit(fc.lastType, fc.lastPayload)
}

func (fc *frameConn) transmit(ftype byte, payload []byte) error {
	buf := encodeFrame(ftype, payload)
	plan := fc.net.faultPlan()
	if err := plan.Check(faultinject.MRNetFrame); err != nil {
		// Process death mid-frame: half a frame, then a dead socket.
		fc.conn.Write(buf[:len(buf)/2])
		fc.conn.Close()
		return fmt.Errorf("mrnet: node died mid-frame: %w", err)
	}
	injected := false
	if c := plan.CorruptCheck(faultinject.MRNetFrame, int64(len(payload))); c != nil {
		// Flip inside the CRC-covered region: the payload if there is
		// one, a trailer byte of the checksum itself otherwise. Either
		// way the receiver's verification fires.
		if len(payload) > 0 {
			buf[frameHdrLen+c.Offset] ^= 1 << c.Bit
		} else {
			buf[8+int(c.Offset)%4] ^= 1 << c.Bit
		}
		injected = true
	}
	_, err := fc.conn.Write(buf)
	if err != nil && injected {
		// The flipped frame never reached the peer (dead socket): the
		// corruption is masked, not escaped, and the ledger balances.
		fc.net.noteMasked()
	}
	return err
}

// readFrame reads one frame, returning a typed error per failure mode:
// io.EOF for a clean close between frames, ErrFrameTorn for a
// connection dropped mid-frame, a ProtocolError for a magic/version
// mismatch, ErrFrameTooLarge for an oversized length field, and
// ErrFrameCorrupt for a payload failing its CRC32C.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("mrnet: frame header: %w (%v)", ErrFrameTorn, err)
	}
	if string(hdr[:2]) != frameMagic {
		return 0, nil, &integrity.ProtocolError{
			Plane: "mrnet.tcp", Field: "magic",
			Got: uint64(binary.LittleEndian.Uint16(hdr[:2])), Want: uint64('M') | uint64('R')<<8,
		}
	}
	if hdr[2] != frameVersion {
		return 0, nil, &integrity.ProtocolError{
			Plane: "mrnet.tcp", Field: "version", Got: uint64(hdr[2]), Want: frameVersion,
		}
	}
	ftype := hdr[3]
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("mrnet: frame of %d bytes: %w", n, ErrFrameTooLarge)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[8:12])
	payload := make([]byte, n)
	if got, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("mrnet: frame payload (%d of %d bytes): %w (%v)", got, n, ErrFrameTorn, err)
	}
	if integrity.Checksum(payload) != wantCRC {
		return 0, nil, fmt.Errorf("mrnet: frame type %d: %w", ftype, ErrFrameCorrupt)
	}
	return ftype, payload, nil
}

// recv reads the next application frame off the edge, running the
// receiver's half of the integrity protocol: a CRC failure sends a NACK
// and rereads (bounded), an incoming NACK retransmits our own last
// frame (bounded). Every CRC failure is counted as a detection.
func (t *TCPNetwork) recv(fc *frameConn, nodeID int) (byte, []byte, error) {
	nacks, resends := 0, 0
	for {
		ftype, payload, err := readFrame(fc.conn)
		if errors.Is(err, ErrFrameCorrupt) {
			nacks++
			healed := nacks <= maxFrameRetries
			t.noteDetected(nodeID, healed)
			if !healed {
				return 0, nil, fmt.Errorf("mrnet: node %d: giving up after %d corrupt frames: %w", nodeID, nacks, ErrFrameCorrupt)
			}
			if werr := writeFrame(fc.conn, frameNack, nil); werr != nil {
				return 0, nil, werr
			}
			continue
		}
		if err != nil {
			return 0, nil, err
		}
		if ftype == frameNack {
			resends++
			if resends > maxFrameRetries {
				return 0, nil, fmt.Errorf("mrnet: node %d: peer rejected %d retransmits: %w", nodeID, resends, ErrFrameCorrupt)
			}
			t.retransmits.Add(1)
			t.planMu.Lock()
			hub := t.hub
			t.planMu.Unlock()
			hub.Counter("mrnet_frame_retransmits_total").Inc()
			if werr := fc.resend(); werr != nil {
				return 0, nil, werr
			}
			continue
		}
		return ftype, payload, nil
	}
}

// serve is a node's process loop: wait for a downstream frame, run the
// subtree's share of the operation, send the combined result upstream.
func (t *TCPNetwork) serve(tn *tcpNode) {
	n := tn.node
	if n.id == 0 {
		return // root has no serve loop; Reduce operates it directly
	}
	for {
		ftype, payload, err := t.recv(tn.parent, n.id)
		if err != nil {
			if errors.Is(err, ErrFrameCorrupt) {
				// The down link is persistently corrupting: surface it
				// to the parent and stay alive for the next operation.
				_ = writeFrame(tn.parent.conn, frameError, []byte(err.Error()))
				continue
			}
			return // connection closed or torn: shutdown
		}
		if ftype != frameDown {
			continue
		}
		up, err := t.runSubtree(tn, payload)
		if err != nil {
			_ = tn.parent.send(frameError, []byte(err.Error()))
			continue
		}
		if err := tn.parent.send(frameUp, up); err != nil {
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
	for _, fc := range tn.children {
		if err := fc.send(frameDown, down); err != nil {
			return nil, fmt.Errorf("node %d fanout: %w", n.id, err)
		}
	}
	parts := make([][]byte, len(tn.children))
	for i, fc := range tn.children {
		ftype, payload, err := t.recv(fc, n.id)
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
	t.closeMu.Lock()
	closed := t.closed
	t.closeMu.Unlock()
	if closed {
		return nil, errors.New("mrnet: TCP overlay closed")
	}
	return t.runSubtree(t.nodes[0], down)
}

// Tree exposes the underlying topology (for assertions and fan-out info).
func (t *TCPNetwork) Tree() *Network { return t.tree }

// Close tears the overlay down; in-flight operations fail.
func (t *TCPNetwork) Close() {
	t.closeMu.Lock()
	defer t.closeMu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	for _, tn := range t.nodes {
		if tn == nil {
			continue
		}
		if tn.parent != nil {
			tn.parent.conn.Close()
		}
		for _, c := range tn.children {
			if c != nil {
				c.conn.Close()
			}
		}
	}
}
