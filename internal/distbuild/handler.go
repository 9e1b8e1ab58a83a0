package distbuild

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"adsketch/internal/wire"
)

// WorkerHandler serves one build worker over HTTP — the server half of
// HTTPExchanger, mounted by `adsserver -buildworker`.  It holds at most
// one build at a time: a new init replaces the previous build's state,
// so a worker process is reusable across builds without restarting.
// The mutex serializes the driver's calls; the BSP protocol never
// overlaps them, but a confused or duplicate driver must not corrupt
// the worker.
type WorkerHandler struct {
	mu sync.Mutex
	w  *Worker
}

// NewWorkerHandler returns an idle build-worker handler.
func NewWorkerHandler() *WorkerHandler { return &WorkerHandler{} }

// Register mounts the build endpoints on mux.
func (h *WorkerHandler) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathInit, h.handleInit)
	mux.HandleFunc("POST "+PathStep, h.handleStep)
	mux.HandleFunc("POST "+PathFreeze, h.handleFreeze)
}

func (h *WorkerHandler) handleInit(w http.ResponseWriter, r *http.Request) {
	var spec WorkerSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&spec); err != nil {
		http.Error(w, fmt.Sprintf("decoding worker spec: %v", err), http.StatusBadRequest)
		return
	}
	worker, err := NewWorker(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	outs, err := worker.Init(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h.w = worker
	writeFrontier(w, &wire.FrontierFrame{Kind: spec.Kind, Round: 0, Groups: outs})
}

func (h *WorkerHandler) handleStep(w http.ResponseWriter, r *http.Request) {
	buf := wire.Get()
	defer buf.Free()
	data, err := wire.ReadAll(buf.B, http.MaxBytesReader(w, r.Body, 1<<30))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading frontier frame: %v", err), http.StatusBadRequest)
		return
	}
	buf.B = data
	frame, err := wire.DecodeFrontierFrame(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.w == nil {
		http.Error(w, "no build in progress: POST "+PathInit+" first", http.StatusConflict)
		return
	}
	if frame.Kind != h.w.spec.Kind {
		http.Error(w, fmt.Sprintf("frame kind %d, build is kind %d", frame.Kind, h.w.spec.Kind), http.StatusBadRequest)
		return
	}
	// The driver sends the inbox as one group; tolerate any grouping.
	var inbox []Candidate
	for _, g := range frame.Groups {
		inbox = append(inbox, g...)
	}
	outs, err := h.w.Step(r.Context(), frame.Round, inbox)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeFrontier(w, &wire.FrontierFrame{Kind: frame.Kind, Round: frame.Round, Groups: outs})
}

func (h *WorkerHandler) handleFreeze(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.w == nil {
		http.Error(w, "no build in progress: POST "+PathInit+" first", http.StatusConflict)
		return
	}
	b, err := h.w.Freeze(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(examinedHeader, strconv.FormatInt(h.w.Examined(), 10))
	w.Write(b)
}

func writeFrontier(w http.ResponseWriter, f *wire.FrontierFrame) {
	buf := wire.Get()
	defer buf.Free()
	if err := wire.EncodeFrontierFrame(buf, f); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	w.Write(buf.B)
}
