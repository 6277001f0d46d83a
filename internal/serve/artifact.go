package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"rnuma/internal/spec"
	"rnuma/internal/tracefile"
	"rnuma/internal/traffic"
)

// Artifact kinds.
const (
	KindTrace   = "trace"   // a recorded tracefile encoding
	KindSpec    = "spec"    // a declarative workload spec (JSON)
	KindTraffic = "traffic" // a multi-tenant traffic scenario (JSON)
)

// maxUpload bounds one artifact upload (traces compress well; 256 MB is
// far past any capture the harness produces).
const maxUpload = 256 << 20

// Artifact is one uploaded input, content-addressed: the ID is the
// SHA-256 of the uploaded bytes, so re-uploading identical content
// returns the existing artifact and two artifacts with equal IDs are
// byte-identical. The harness's own source keys (trace canonical hash,
// spec content hash) additionally make *simulations* follow content, so
// even artifacts uploaded under different names share results when their
// decoded streams agree.
type Artifact struct {
	ID   string `json:"id"`   // sha256(bytes), hex
	Kind string `json:"kind"` // trace | spec | traffic
	Name string `json:"name"` // the embedded workload/scenario name
	Size int    `json:"size"` // uploaded bytes

	// Nodes/CPUs are the recorded machine shape (traces only).
	Nodes int `json:"nodes,omitempty"`
	CPUs  int `json:"cpus,omitempty"`

	data    []byte
	hdr     tracefile.Header // valid when Kind == KindTrace
	label   string           // names the input in replay report headers
	baseDir string           // resolves a traffic scenario's relative phase paths
}

// NewArtifact validates data as one artifact of the given kind. Kind ""
// sniffs: tracefile encodings are tried first (they have a magic
// header), then traffic (distinguished by its top-level "clients" key),
// then spec. label names the input in replay report headers ("" means
// the ID's first 12 hex digits, the daemon's form; the CLIs pass the
// file path), and baseDir anchors a traffic scenario's relative phase
// paths ("" means the working directory).
func NewArtifact(kind string, data []byte, label, baseDir string) (*Artifact, error) {
	a := &Artifact{
		ID:      fmt.Sprintf("%x", sha256.Sum256(data)),
		Kind:    kind,
		Size:    len(data),
		data:    data,
		label:   label,
		baseDir: baseDir,
	}
	if a.label == "" {
		a.label = a.ID[:12]
	}
	if a.Kind == "" {
		a.Kind = sniffKind(data)
	}
	switch a.Kind {
	case KindTrace:
		d, err := tracefile.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("serve: bad trace: %w", err)
		}
		a.hdr = d.Header()
		a.Name = a.hdr.Name
		a.Nodes, a.CPUs = a.hdr.Nodes, a.hdr.CPUs
	case KindSpec:
		sp, err := spec.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("serve: bad spec: %w", err)
		}
		a.Name = sp.Name
	case KindTraffic:
		tr, err := traffic.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("serve: bad traffic scenario: %w", err)
		}
		a.Name = tr.Name
	default:
		return nil, fmt.Errorf("serve: unknown artifact kind %q (want trace, spec, or traffic)", kind)
	}
	return a, nil
}

// AddArtifact validates and registers one artifact; uploading identical
// bytes again returns the existing entry with created=false. The created
// flag is decided under the registry lock, so concurrent uploads of the
// same bytes report exactly one creation.
func (s *Server) AddArtifact(kind string, data []byte) (a *Artifact, created bool, err error) {
	a, err = NewArtifact(kind, data, "", "")
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.artifacts[a.ID]; ok {
		return old, false, nil
	}
	s.artifacts[a.ID] = a
	s.logf("artifact %s: %s %q (%d bytes)", a.ID[:12], a.Kind, a.Name, a.Size)
	return a, true, nil
}

// sniffKind guesses an upload's kind: tracefiles are non-JSON binary
// encodings, and of the two JSON kinds only traffic scenarios have a
// top-level "clients" key — checked by decoding the object, because a
// substring test would mis-sniff any spec that merely mentions clients
// in a name or value.
func sniffKind(data []byte) string {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return KindTrace
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(trimmed, &top); err == nil {
		if _, ok := top["clients"]; ok {
			return KindTraffic
		}
	}
	return KindSpec
}

// artifact resolves an ID, unique ID prefix, or unique name.
func (s *Server) artifact(ref string) (*Artifact, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.artifacts[ref]; ok {
		return a, nil
	}
	var found *Artifact
	for id, a := range s.artifacts {
		if (len(ref) >= 8 && len(ref) < len(id) && id[:len(ref)] == ref) || a.Name == ref {
			if found != nil {
				return nil, fmt.Errorf("serve: artifact ref %q is ambiguous", ref)
			}
			found = a
		}
	}
	if found == nil {
		return nil, fmt.Errorf("serve: no artifact %q", ref)
	}
	return found, nil
}

// handleUpload accepts one artifact as the raw request body; the kind
// comes from ?kind= (omit to sniff). Responds 200 with the existing
// entry when the content was already uploaded, 201 on first upload.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxUpload+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "serve: read body: %v", err)
		return
	}
	if len(data) > maxUpload {
		writeError(w, http.StatusRequestEntityTooLarge, "serve: artifact exceeds %d bytes", maxUpload)
		return
	}
	if len(data) == 0 {
		writeError(w, http.StatusBadRequest, "serve: empty artifact")
		return
	}
	a, created, err := s.AddArtifact(r.URL.Query().Get("kind"), data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, a)
}
