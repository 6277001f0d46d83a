package serve

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"

	"rnuma/internal/config"
	"rnuma/internal/harness"
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
	in      harness.Input // what the harness read of data
	label   string        // names the input in replay report headers
	baseDir string        // resolves a traffic scenario's relative phase paths
}

// NewArtifact validates data as one artifact of the given kind, which ""
// sniffs (harness.Inspect). label names the input in replay report
// headers ("" means the ID's first 12 hex digits, the daemon's form; the
// CLIs pass the file path), and baseDir anchors a traffic scenario's
// relative phase paths ("" means the working directory).
func NewArtifact(kind string, data []byte, label, baseDir string) (*Artifact, error) {
	in, err := harness.Inspect(kind, data)
	if err != nil {
		return nil, err
	}
	a := &Artifact{
		ID:      fmt.Sprintf("%x", sha256.Sum256(data)),
		Kind:    in.Kind,
		Name:    in.Name,
		Size:    len(data),
		Nodes:   in.Header.Nodes,
		CPUs:    in.Header.CPUs,
		data:    data,
		in:      in,
		label:   label,
		baseDir: baseDir,
	}
	if a.label == "" {
		a.label = a.ID[:12]
	}
	return a, nil
}

// load registers the artifact with h for a run on sys, returning its
// source and the system it runs on: a trace replays on its recorded
// machine, registered as "<name>@<id8>" because its embedded name alone
// could collide with a differing second upload's, e.g. in a diffstats
// job.
func (a *Artifact) load(h *harness.Harness, sys config.System) (harness.Source, config.System, error) {
	sys, err := a.in.System(sys)
	if err != nil {
		return nil, sys, err
	}
	name := ""
	if a.Kind == harness.KindTrace {
		name = fmt.Sprintf("%s@%s", a.Name, a.ID[:8])
	}
	src, err := h.Load(a.Kind, a.data, name, a.baseDir, sys)
	return src, sys, err
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
