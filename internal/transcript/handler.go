package transcript

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/wire"
)

// AuditDoc is the GET /audit response document. Binary fields (leaf, proof,
// sample inputs) travel base64 via encoding/json's []byte default; the leaf
// summary is decoded alongside for operators reading the JSON by eye.
type AuditDoc struct {
	// Head is the signed tree head every proof in the document targets.
	Head SignedHead `json:"head"`
	// Size is the live log size, which may run ahead of Head.Size.
	Size uint64 `json:"size"`
	// Dropped counts batches that got no leaf (a full channel or failed
	// storage): each is a batch-ID gap, never a partial leaf.
	Dropped uint64 `json:"dropped"`
	// Leaf and LeafIndex are set for ?trace= and ?sample= requests: the
	// encoded leaf and its index under Head.
	Leaf      []byte  `json:"leaf,omitempty"`
	LeafIndex *uint64 `json:"leaf_index,omitempty"`
	// LeafView is the decoded leaf (informational; verifiers re-decode Leaf).
	LeafView *LeafView `json:"leaf_view,omitempty"`
	// Proof is the encoded inclusion (?trace=, ?sample=) or consistency
	// (?consistency=) proof.
	Proof []byte `json:"proof,omitempty"`
	// Inputs is the sampled batch's input tensor set in the public binary
	// request codec (?sample= only) — exactly what a replaying auditor
	// feeds a locally built engine.
	Inputs []byte `json:"inputs,omitempty"`
	// Bindings is the monitor's §4.3 binding log, when the host exposes it.
	Bindings json.RawMessage `json:"bindings,omitempty"`
	// Identity is the signing platform's public identity (JSON export), for
	// deployments whose platform is synthesized in process and therefore
	// has no bundle file an auditor could pin. Trust-on-first-use: an
	// auditor holding the bundle's platform identity must prefer that.
	Identity json.RawMessage `json:"identity,omitempty"`
}

// LeafView is the human-readable rendering of a leaf.
type LeafView struct {
	Trace       string   `json:"trace"`
	Batch       uint64   `json:"batch"`
	Input       Hash     `json:"input"`
	Checkpoints []Hash   `json:"checkpoints,omitempty"`
	Votes       []string `json:"votes,omitempty"`
	Output      Hash     `json:"output"`
	Rung        uint8    `json:"rung"`
	Replica     string   `json:"replica,omitempty"`
}

func viewOf(l Leaf) *LeafView {
	v := &LeafView{
		Trace:   fmt.Sprintf("%016x", l.Trace),
		Batch:   l.Batch,
		Input:   Hash(l.Input),
		Output:  Hash(l.Output),
		Rung:    l.Rung,
		Replica: l.Replica,
	}
	for _, d := range l.Checkpoints {
		v.Checkpoints = append(v.Checkpoints, Hash(d))
	}
	for _, vt := range l.Votes {
		verdict := "dissent"
		if vt.Agree {
			verdict = "agree"
		}
		v.Votes = append(v.Votes, fmt.Sprintf("%s:%s:%x", vt.Replica, verdict, vt.Sum[:8]))
	}
	return v
}

// HandlerConfig wires the audit endpoint to its host.
type HandlerConfig struct {
	// Bindings, when set, returns the binding log served alongside the head
	// (the monitor's []BindingRecord; any JSON-marshalable value works).
	Bindings func() any
	// Identity, when set, is the signing platform's exported public
	// identity, published in every document for trust-on-first-use
	// auditors.
	Identity []byte
}

// Handler serves GET /audit:
//
//	/audit                 -> signed head + live size (+ binding log)
//	/audit?trace=<hex>     -> leaf + inclusion proof for that trace ID
//	                          (among the newest 65,536 leaves)
//	/audit?consistency=<n> -> consistency proof from size n to the head
//	/audit?sample=1        -> newest replayable leaf + proof + input tensors
//
// Proofs always target the returned head; when the requested leaf is newer
// than the last published head, a fresh head is signed first so the proof
// has something to verify against. A storage failure answers 503 with its
// cause; once the spill file could not be written, every request does.
func Handler(rec *Recorder, cfg HandlerConfig) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if rec == nil {
			http.Error(w, "transcript disabled", http.StatusNotFound)
			return
		}
		if err := rec.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		q := req.URL.Query()
		var doc AuditDoc
		var err error
		switch {
		case q.Get("trace") != "":
			err = handleTrace(rec, q.Get("trace"), &doc)
		case q.Get("consistency") != "":
			err = handleConsistency(rec, q.Get("consistency"), &doc)
		case q.Get("sample") != "":
			err = handleSample(rec, &doc)
		default:
			doc.Head, err = rec.SignedHead(false)
			if err == nil && cfg.Bindings != nil {
				if b, merr := json.Marshal(cfg.Bindings()); merr == nil {
					doc.Bindings = b
				}
			}
		}
		if err != nil {
			status := http.StatusNotFound
			if errors.Is(err, ErrStorage) {
				status = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), status)
			return
		}
		doc.Size = rec.Size()
		doc.Dropped = rec.Dropped()
		doc.Identity = cfg.Identity
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&doc)
	})
}

func handleTrace(rec *Recorder, traceStr string, doc *AuditDoc) error {
	trace, err := strconv.ParseUint(traceStr, 16, 64)
	if err != nil {
		return fmt.Errorf("transcript: bad trace %q", traceStr)
	}
	leaf, enc, idx, err := rec.LeafByTrace(trace)
	if err != nil {
		return err
	}
	return attachInclusion(rec, leaf, enc, idx, doc)
}

func handleSample(rec *Recorder, doc *AuditDoc) error {
	head, err := rec.SignedHead(false)
	if err != nil {
		return err
	}
	smp, ok := rec.Sample(head.Head.Size)
	if !ok {
		// Nothing sampled under the published head yet; cover the live
		// tree and retry once.
		if head, err = rec.SignedHead(true); err != nil {
			return err
		}
		if smp, ok = rec.Sample(head.Head.Size); !ok {
			return fmt.Errorf("transcript: no replayable sample retained")
		}
	}
	_, enc, err := rec.LeafAt(smp.Index)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := wire.EncodeRequest(&buf, smp.Inputs); err != nil {
		return fmt.Errorf("transcript: encode sample inputs: %w", err)
	}
	doc.Inputs = buf.Bytes()
	return attachInclusion(rec, smp.Leaf, enc, smp.Index, doc)
}

func handleConsistency(rec *Recorder, sizeStr string, doc *AuditDoc) error {
	m, err := strconv.ParseUint(sizeStr, 10, 64)
	if err != nil {
		return fmt.Errorf("transcript: bad consistency size %q", sizeStr)
	}
	head, err := rec.SignedHead(false)
	if err != nil {
		return err
	}
	if m > head.Head.Size {
		if head, err = rec.SignedHead(true); err != nil {
			return err
		}
	}
	p, err := rec.ConsistencyProof(m, head.Head.Size)
	if err != nil {
		return err
	}
	pb, err := p.Marshal()
	if err != nil {
		return err
	}
	doc.Head, doc.Proof = head, pb
	return nil
}

func attachInclusion(rec *Recorder, leaf Leaf, enc []byte, idx uint64, doc *AuditDoc) error {
	head, err := rec.SignedHead(false)
	if err != nil {
		return err
	}
	if idx >= head.Head.Size {
		// Leaf is newer than the last published head; publish one covering it.
		if head, err = rec.SignedHead(true); err != nil {
			return err
		}
	}
	p, err := rec.InclusionProof(idx, head.Head.Size)
	if err != nil {
		return err
	}
	pb, err := p.Marshal()
	if err != nil {
		return err
	}
	i := idx
	doc.Head, doc.Leaf, doc.LeafIndex, doc.LeafView, doc.Proof = head, enc, &i, viewOf(leaf), pb
	return nil
}
