// Package securechan implements MVTEE's socket-level RA-TLS analogue
// (§5.2): an attested, encrypted, freshness-protected channel over any
// net.Conn. The handshake performs an X25519 key agreement in which each
// side's attestation report binds the channel's public keys and nonces into
// its report data — so a verified report proves the peer enclave owns the
// channel — and the record layer protects every message with AES-GCM-256
// under direction-separated keys and explicit monotonic sequence numbers.
//
// Conn is the one channel contract. Plain (the Figure 10 no-encryption
// baseline) and *SecureConn implement it, both on the pooled zero-copy path:
// in-place sealed sends from Bufs, encode-once fan-out sends and receives into
// a reused per-connection buffer. Every record spends a sequence number, so a
// failed send is never retried on the same channel; recovery belongs to the
// engine, which excludes the variant and promotes a spare, and to the cluster
// router, which fails over to another replica.
package securechan

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/enclave"
)

// Conn is the one channel contract between monitor and variant and between
// router and replica. It is implemented by the Plain baseline framing and by
// *SecureConn, and every method is the pooled zero-copy path. Sends and
// receives are each safe for use by one goroutine at a time (one sender and
// one receiver concurrently is fine).
type Conn interface {
	// SendBuf seals (secure channels) and frames the buffer's payload in
	// place and transmits it as a single write. The buffer is consumed:
	// SendBuf returns it to its pool whether or not the send succeeds.
	SendBuf(b *Buf) error
	// Send seals payload into a pooled frame of the connection's own and
	// transmits it, leaving payload intact: the encode-once fan-out path,
	// safe to call with the same payload on many connections.
	Send(payload []byte) error
	// Recv receives one message into the connection's pooled receive
	// buffer, decrypting in place on secure channels. The returned slice is
	// valid only until the next Recv on this connection; callers must
	// decode or copy it before receiving again.
	Recv() ([]byte, error)
	// SetIOTimeout bounds every subsequent send and receive: an operation
	// that does not complete within d fails with a timeout error. Zero
	// disables deadlines, which is right for data-plane readers that idle
	// between batches; straggler detection there belongs to the engine's
	// StageTimeout, not the transport.
	SetIOTimeout(d time.Duration)
	Close() error
}

// MaxFrameSize is the largest accepted frame (largest checkpoint tensors
// plus record headers). The length word of an incoming frame is
// attacker-controlled until the record authenticates, so receivers enforce
// this cap before committing memory and grow large frames incrementally as
// their bytes actually arrive.
const MaxFrameSize = 1 << 28

// maxRecvRetain caps how large a connection's pooled receive buffer is kept
// across messages; a one-off giant frame does not pin its memory forever.
const maxRecvRetain = 1 << 24

// Errors.
var (
	ErrFrameTooLarge = errors.New("securechan: frame exceeds limit")
	ErrSequence      = errors.New("securechan: bad record sequence (replay or reorder)")
	ErrHandshake     = errors.New("securechan: handshake failed")
)

// --- raw framing ------------------------------------------------------------

// checkFrameLen is the one size rule for a record's length word: senders
// apply it before they write and receivers before they allocate, so a sender
// refuses exactly the records its peer would.
func checkFrameLen(n uint64) error {
	if n > MaxFrameSize {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, MaxFrameSize)
	}
	return nil
}

// writeFrame writes one handshake frame.
func writeFrame(w io.Writer, b []byte) error {
	if err := checkFrameLen(uint64(len(b))); err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// readFrameLen reads and validates a frame's length word through hdr, a
// frameHdrLen-byte scratch the caller owns: a local array would escape
// through io.ReadFull and cost an allocation per frame.
func readFrameLen(r io.Reader, hdr []byte) (int, error) {
	if _, err := io.ReadFull(r, hdr[:frameHdrLen]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if err := checkFrameLen(uint64(n)); err != nil {
		return 0, err
	}
	return int(n), nil
}

// readChunk bounds how much memory one growth step commits while a frame
// body is still arriving: a forged length word can make the receiver commit
// at most one chunk beyond the bytes the peer actually transmitted.
const readChunk = 1 << 20

// readBody reads an n-byte frame body, reusing scratch's capacity when it
// suffices. Oversized cold reads grow incrementally in readChunk steps.
func readBody(r io.Reader, scratch []byte, n int) ([]byte, error) {
	if n <= cap(scratch) || n <= readChunk {
		var b []byte
		if n <= cap(scratch) {
			b = scratch[:n]
		} else {
			b = make([]byte, n)
		}
		_, err := io.ReadFull(r, b)
		return b, err
	}
	b := scratch[:0]
	read := 0
	for read < n {
		step := n - read
		if step > readChunk {
			step = readChunk
		}
		need := read + step
		if cap(b) < need {
			newCap := 2 * cap(b)
			if newCap < need {
				newCap = need
			}
			if newCap > n {
				newCap = n
			}
			nb := make([]byte, need, newCap)
			copy(nb, b[:read])
			b = nb
		} else {
			b = b[:need]
		}
		if _, err := io.ReadFull(r, b[read:need]); err != nil {
			return nil, err
		}
		read = need
	}
	return b, nil
}

// readFrame reads one handshake frame into fresh memory.
func readFrame(r io.Reader) ([]byte, error) {
	n, err := readFrameLen(r, make([]byte, frameHdrLen))
	if err != nil {
		return nil, err
	}
	return readBody(r, nil, n)
}

// recvFrame reads one data frame into *scratch's capacity when it suffices
// and keeps the frame as the next receive's scratch unless it outgrew
// maxRecvRetain. hdr is the connection's length-word scratch.
func recvFrame(r io.Reader, scratch *[]byte, hdr []byte) ([]byte, error) {
	n, err := readFrameLen(r, hdr)
	if err != nil {
		return nil, err
	}
	frame, err := readBody(r, *scratch, n)
	if err != nil {
		return nil, err
	}
	if cap(frame) <= maxRecvRetain {
		*scratch = frame
	}
	return frame, nil
}

// --- plaintext channel (baseline) --------------------------------------------

// ioDeadline arms a per-operation deadline on the transport.
func ioDeadline(d time.Duration, set func(time.Time) error) {
	if d > 0 {
		_ = set(time.Now().Add(d))
	} else {
		_ = set(time.Time{})
	}
}

// plainConn is the no-encryption baseline channel used by the Figure 10
// overhead experiments. Same framing, no crypto.
type plainConn struct {
	c      net.Conn
	sendMu sync.Mutex
	recvMu sync.Mutex
	// sendHdr, sendVec and sendBufs are Send's length word and write
	// vector, guarded by sendMu; recvHdr is the receive length word,
	// guarded by recvMu. Kept here so a record costs no allocation for them.
	sendHdr   [frameHdrLen]byte
	sendVec   [2][]byte
	sendBufs  net.Buffers
	recvHdr   [frameHdrLen]byte
	recvBuf   []byte       // pooled receive scratch, guarded by recvMu
	ioTimeout atomic.Int64 // time.Duration; 0 = no deadline
}

// Plain wraps c in unencrypted framing.
func Plain(c net.Conn) Conn { return &plainConn{c: c} }

func (p *plainConn) SetIOTimeout(d time.Duration) { p.ioTimeout.Store(int64(d)) }

// SendBuf frames the buffer's payload in place (the length word lands in the
// tail of the headroom) and transmits it as one write.
func (p *plainConn) SendBuf(b *Buf) error {
	defer b.Free()
	if err := checkFrameLen(uint64(b.n)); err != nil {
		return err
	}
	frame := b.full[BufHeadroom-frameHdrLen : BufHeadroom+b.n]
	binary.BigEndian.PutUint32(frame[:frameHdrLen], uint32(b.n))
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	ioDeadline(time.Duration(p.ioTimeout.Load()), p.c.SetWriteDeadline)
	if _, err := p.c.Write(frame); err != nil {
		return err
	}
	countSent(b.n)
	return nil
}

// Send frames payload without copying it, scattering the header and payload
// with a vectored write (net.Buffers → writev on TCP).
func (p *plainConn) Send(payload []byte) error {
	if err := checkFrameLen(uint64(len(payload))); err != nil {
		return err
	}
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	binary.BigEndian.PutUint32(p.sendHdr[:], uint32(len(payload)))
	ioDeadline(time.Duration(p.ioTimeout.Load()), p.c.SetWriteDeadline)
	p.sendVec = [2][]byte{p.sendHdr[:], payload}
	p.sendBufs = p.sendVec[:]
	if len(payload) == 0 {
		// A zero-length write still waits for a reader on synchronous
		// transports such as net.Pipe, and the receiver never reads an
		// empty body.
		p.sendBufs = p.sendBufs[:1]
	}
	if _, err := p.sendBufs.WriteTo(p.c); err != nil {
		return err
	}
	countSent(len(payload))
	return nil
}

func (p *plainConn) Recv() ([]byte, error) {
	p.recvMu.Lock()
	defer p.recvMu.Unlock()
	ioDeadline(time.Duration(p.ioTimeout.Load()), p.c.SetReadDeadline)
	frame, err := recvFrame(p.c, &p.recvBuf, p.recvHdr[:])
	if err != nil {
		return nil, err
	}
	return frame, nil
}

func (p *plainConn) Close() error { return p.c.Close() }

// --- secure channel ----------------------------------------------------------

// SecureConn is an established RA-TLS-style channel.
type SecureConn struct {
	c        net.Conn
	sendMu   sync.Mutex
	recvMu   sync.Mutex
	sendAEAD cipher.AEAD
	recvAEAD cipher.AEAD
	sendSeq  uint64
	recvSeq  uint64
	// sendAAD/recvAAD are per-direction AAD scratch (label ‖ sequence),
	// guarded by the corresponding mutex so the hot path never reallocates
	// the additional data per record.
	sendAAD []byte
	recvAAD []byte
	// sendNonce/recvNonce are the per-direction GCM nonce scratch and
	// recvHdr the receive length word, guarded like the AAD scratch: handed
	// to the AEAD interface or io.ReadFull, a local array would escape and
	// cost an allocation per record.
	sendNonce [12]byte
	recvNonce [12]byte
	recvHdr   [frameHdrLen]byte
	// recvBuf is the pooled receive frame, reused across Recv calls
	// (guarded by recvMu).
	recvBuf    []byte
	peerReport *enclave.Report
	ioTimeout  atomic.Int64 // time.Duration; 0 = no deadline
}

var _ Conn = (*SecureConn)(nil)

// newSecureConn assembles the record layer shared by both handshake roles.
func newSecureConn(c net.Conn, sendAEAD, recvAEAD cipher.AEAD, sendLabel, recvLabel string, peer *enclave.Report) *SecureConn {
	aad := func(label string) []byte {
		b := make([]byte, len(label)+8)
		copy(b, label)
		return b
	}
	return &SecureConn{
		c: c, sendAEAD: sendAEAD, recvAEAD: recvAEAD,
		sendAAD: aad(sendLabel), recvAAD: aad(recvLabel),
		peerReport: peer,
	}
}

// putSeqAAD stamps seq into the direction's AAD scratch and returns it.
func putSeqAAD(aad []byte, seq uint64) []byte {
	binary.BigEndian.PutUint64(aad[len(aad)-8:], seq)
	return aad
}

// SetIOTimeout bounds each send and receive; zero disables deadlines. A
// timed-out operation may leave a partial record on the wire, and a record
// is never re-sent under a sequence number already spent, so the connection
// is broken afterwards. Recovery is the engine's (variant exclusion and spare
// promotion) or the cluster router's (failover), never a retry on the same
// channel.
func (s *SecureConn) SetIOTimeout(d time.Duration) { s.ioTimeout.Store(int64(d)) }

// PeerReport returns the attestation report presented by the peer during the
// handshake.
func (s *SecureConn) PeerReport() *enclave.Report { return s.peerReport }

// Close closes the underlying transport.
func (s *SecureConn) Close() error { return s.c.Close() }

// sealedLen is the length word of the record that carries an n-byte payload.
func sealedLen(n int) uint64 { return uint64(recSeqLen + n + BufTailroom) }

// SendBuf seals the buffer's payload in place (the ciphertext and tag land
// where the plaintext was, the frame header and sequence number in the
// headroom) and transmits the record as a single write.
func (s *SecureConn) SendBuf(b *Buf) error {
	defer b.Free()
	if err := checkFrameLen(sealedLen(b.n)); err != nil {
		return err
	}
	return s.sealAndWrite(b, b.Payload())
}

// Send seals payload into a pooled frame of this connection's own. payload
// is left intact, so the same encoded message can fan out across many
// connections with one marshal and one seal each.
func (s *SecureConn) Send(payload []byte) error {
	if err := checkFrameLen(sealedLen(len(payload))); err != nil {
		return err
	}
	f := GetBuf(len(payload))
	defer f.Free()
	return s.sealAndWrite(f, payload)
}

// sealAndWrite seals plaintext into f's payload region under the next send
// sequence number and writes the record. plaintext is either f's own payload
// (an in-place seal) or memory that does not overlap f.
func (s *SecureConn) sealAndWrite(f *Buf, plaintext []byte) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	seq := s.sendSeq
	s.sendSeq++
	binary.BigEndian.PutUint64(s.sendNonce[4:], seq)
	aad := putSeqAAD(s.sendAAD, seq)
	t0 := time.Now()
	ct := s.sendAEAD.Seal(f.full[BufHeadroom:BufHeadroom], s.sendNonce[:], plaintext, aad)
	mSealNs.Observe(time.Since(t0).Nanoseconds())
	frame := f.full[:BufHeadroom+len(ct)]
	binary.BigEndian.PutUint32(frame[:frameHdrLen], uint32(recSeqLen+len(ct)))
	binary.BigEndian.PutUint64(frame[frameHdrLen:BufHeadroom], seq)
	ioDeadline(time.Duration(s.ioTimeout.Load()), s.c.SetWriteDeadline)
	if _, err := s.c.Write(frame); err != nil {
		return err
	}
	countSent(recSeqLen + len(ct))
	return nil
}

// Recv receives one record into the connection's pooled receive buffer,
// enforces strict sequence order and decrypts in place. The returned slice
// aliases the buffer: it is valid only until the next Recv.
func (s *SecureConn) Recv() ([]byte, error) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	ioDeadline(time.Duration(s.ioTimeout.Load()), s.c.SetReadDeadline)
	frame, err := recvFrame(s.c, &s.recvBuf, s.recvHdr[:])
	if err != nil {
		return nil, err
	}
	return s.openLocked(frame)
}

// openLocked authenticates and decrypts one framed record in place
// (recvMu must be held).
func (s *SecureConn) openLocked(frame []byte) ([]byte, error) {
	if len(frame) < 8 {
		return nil, fmt.Errorf("securechan: short record")
	}
	seq := binary.BigEndian.Uint64(frame)
	if seq != s.recvSeq {
		return nil, fmt.Errorf("%w: got %d want %d", ErrSequence, seq, s.recvSeq)
	}
	s.recvSeq++
	binary.BigEndian.PutUint64(s.recvNonce[4:], seq)
	aad := putSeqAAD(s.recvAAD, seq)
	ct := frame[8:]
	t0 := time.Now()
	pt, err := s.recvAEAD.Open(ct[:0], s.recvNonce[:], ct, aad)
	if err != nil {
		return nil, fmt.Errorf("securechan: record auth: %w", err)
	}
	mOpenNs.Observe(time.Since(t0).Nanoseconds())
	return pt, nil
}

// --- handshake ----------------------------------------------------------------

type helloMsg struct {
	Pub    []byte          `json:"pub"`
	Nonce  []byte          `json:"nonce"`
	Report json.RawMessage `json:"report,omitempty"`
}

// VerifyPeer validates the peer's attestation report during the handshake.
// Returning an error aborts the connection.
type VerifyPeer func(r *enclave.Report) error

func channelBinding(cPub, sPub, cNonce, sNonce []byte) enclave.ReportData {
	h := sha256.New()
	h.Write([]byte("mvtee-ratls-v1"))
	h.Write(cPub)
	h.Write(sPub)
	h.Write(cNonce)
	h.Write(sNonce)
	var rd enclave.ReportData
	copy(rd[:], h.Sum(nil))
	return rd
}

func deriveAEAD(shared, salt []byte, info string) (cipher.AEAD, error) {
	key, err := hkdf.Key(sha256.New, shared, salt, info, 32)
	if err != nil {
		return nil, err
	}
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(blk)
}

func newKeyPair() (*ecdh.PrivateKey, error) {
	return ecdh.X25519().GenerateKey(rand.Reader)
}

// Client performs the initiator side of the attested handshake. self may be
// nil for an unattested client (e.g., the model owner's machine, which is
// verified by other means); verify may be nil to skip peer verification.
func Client(c net.Conn, self attest.Attester, verify VerifyPeer) (*SecureConn, error) {
	priv, err := newKeyPair()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	cNonce, err := attest.NewNonce()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	hello := helloMsg{Pub: priv.PublicKey().Bytes(), Nonce: cNonce}
	b, err := json.Marshal(hello)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if err := writeFrame(c, b); err != nil {
		return nil, fmt.Errorf("%w: send hello: %v", ErrHandshake, err)
	}

	rb, err := readFrame(c)
	if err != nil {
		return nil, fmt.Errorf("%w: read server hello: %v", ErrHandshake, err)
	}
	var sh helloMsg
	if err := json.Unmarshal(rb, &sh); err != nil {
		return nil, fmt.Errorf("%w: parse server hello: %v", ErrHandshake, err)
	}
	sPub, err := ecdh.X25519().NewPublicKey(sh.Pub)
	if err != nil {
		return nil, fmt.Errorf("%w: server key: %v", ErrHandshake, err)
	}
	binding := channelBinding(hello.Pub, sh.Pub, cNonce, sh.Nonce)

	var peer *enclave.Report
	if len(sh.Report) > 0 {
		peer, err = enclave.UnmarshalReport(sh.Report)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
		if peer.ReportData != binding {
			return nil, fmt.Errorf("%w: server report not bound to channel", ErrHandshake)
		}
	}
	if verify != nil {
		if err := verify(peer); err != nil {
			return nil, fmt.Errorf("%w: peer verification: %v", ErrHandshake, err)
		}
	}

	// Client finish: our report, bound to the same transcript.
	fin := helloMsg{}
	if self != nil {
		rep, err := self.GenerateReport(binding)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
		rj, err := rep.Marshal()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
		fin.Report = rj
	}
	fb, err := json.Marshal(fin)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if err := writeFrame(c, fb); err != nil {
		return nil, fmt.Errorf("%w: send finish: %v", ErrHandshake, err)
	}

	shared, err := priv.ECDH(sPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	salt := append(append([]byte(nil), cNonce...), sh.Nonce...)
	c2s, err := deriveAEAD(shared, salt, "mvtee-ratls/c2s")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	s2c, err := deriveAEAD(shared, salt, "mvtee-ratls/s2c")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	return newSecureConn(c, c2s, s2c, "c2s", "s2c", peer), nil
}

// Server performs the responder side of the attested handshake. self may be
// nil (plaintext-authenticated server); verify may be nil to accept any
// client.
func Server(c net.Conn, self attest.Attester, verify VerifyPeer) (*SecureConn, error) {
	hb, err := readFrame(c)
	if err != nil {
		return nil, fmt.Errorf("%w: read hello: %v", ErrHandshake, err)
	}
	var ch helloMsg
	if err := json.Unmarshal(hb, &ch); err != nil {
		return nil, fmt.Errorf("%w: parse hello: %v", ErrHandshake, err)
	}
	cPub, err := ecdh.X25519().NewPublicKey(ch.Pub)
	if err != nil {
		return nil, fmt.Errorf("%w: client key: %v", ErrHandshake, err)
	}
	priv, err := newKeyPair()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	sNonce, err := attest.NewNonce()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	myPub := priv.PublicKey().Bytes()
	binding := channelBinding(ch.Pub, myPub, ch.Nonce, sNonce)

	sh := helloMsg{Pub: myPub, Nonce: sNonce}
	if self != nil {
		rep, err := self.GenerateReport(binding)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
		rj, err := rep.Marshal()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
		sh.Report = rj
	}
	sb, err := json.Marshal(sh)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if err := writeFrame(c, sb); err != nil {
		return nil, fmt.Errorf("%w: send server hello: %v", ErrHandshake, err)
	}

	fb, err := readFrame(c)
	if err != nil {
		return nil, fmt.Errorf("%w: read finish: %v", ErrHandshake, err)
	}
	var fin helloMsg
	if err := json.Unmarshal(fb, &fin); err != nil {
		return nil, fmt.Errorf("%w: parse finish: %v", ErrHandshake, err)
	}
	var peer *enclave.Report
	if len(fin.Report) > 0 {
		peer, err = enclave.UnmarshalReport(fin.Report)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
		if peer.ReportData != binding {
			return nil, fmt.Errorf("%w: client report not bound to channel", ErrHandshake)
		}
	}
	if verify != nil {
		if err := verify(peer); err != nil {
			return nil, fmt.Errorf("%w: peer verification: %v", ErrHandshake, err)
		}
	}

	shared, err := priv.ECDH(cPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	salt := append(append([]byte(nil), ch.Nonce...), sNonce...)
	c2s, err := deriveAEAD(shared, salt, "mvtee-ratls/c2s")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	s2c, err := deriveAEAD(shared, salt, "mvtee-ratls/s2c")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	return newSecureConn(c, s2c, c2s, "s2c", "c2s", peer), nil
}
