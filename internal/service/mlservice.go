package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/ml"
	"repro/internal/serving"
)

// MLService is the AI-pipeline micro-service: it trains models on uploaded
// datasets, reports performance indicators, serves predictions through the
// model-serving runtime (versioned registry, micro-batching, admission
// control), and hands out serialized models for the explainer services.
type MLService struct {
	*base
	runtime *serving.Runtime

	mu     sync.RWMutex
	nextID int
	models map[string]*storedModel
}

// storedModel is the catalog metadata of one trained model; the model
// itself lives in the serving registry under the storedModel id.
type storedModel struct {
	id      string
	algo    string
	ref     serving.Ref
	metrics ml.Metrics
}

// TrainRequest asks the service to train one model.
type TrainRequest struct {
	// Algorithm is an ml.NewByName identifier (lr, dt, rf, mlp, dnn,
	// lgbm, xgb, nn).
	Algorithm string `json:"algorithm"`
	// Train is the training split. Eval, if present, is a held-out
	// split used for the reported metrics; otherwise metrics are
	// computed on the training data.
	Train TableJSON  `json:"train"`
	Eval  *TableJSON `json:"eval,omitempty"`
	// Seed makes training deterministic.
	Seed int64 `json:"seed"`
}

// TrainResponse reports the stored model and its performance indicators.
type TrainResponse struct {
	ModelID string     `json:"modelId"`
	Metrics ml.Metrics `json:"metrics"`
	// Ref is the serving-registry reference: the content-addressed id
	// plus the algorithm-alias version this training run appended.
	Ref serving.Ref `json:"ref"`
}

// PredictRequest asks for predictions on raw instances. ModelID accepts
// every serving-registry reference form: a stored model id ("m0001"), an
// algorithm alias ("lgbm", "lgbm@2", "lgbm@latest"), or a raw content id
// ("sha256:...").
type PredictRequest struct {
	ModelID   string      `json:"modelId"`
	Instances [][]float64 `json:"instances"`
}

// PredictResponse carries argmax classes and full probability rows.
type PredictResponse struct {
	Classes []int       `json:"classes"`
	Probs   [][]float64 `json:"probs"`
}

// PromoteRequest atomically points an alias at one of its versions.
type PromoteRequest struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
}

// RollbackRequest restores an alias's previously promoted version.
type RollbackRequest struct {
	Name string `json:"name"`
}

// AliasResponse reports an alias's state after a promote or rollback.
type AliasResponse struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	ID      string `json:"id"`
}

// NewMLService constructs the service. The embedded serving runtime
// records its telemetry (batch sizes, shed counts, cache churn) into the
// service registry exposed at /metrics.
func NewMLService() *MLService {
	b := newBase("ml-pipeline")
	s := &MLService{
		base:    b,
		runtime: serving.New(serving.Config{Telemetry: b.tel}),
		models:  make(map[string]*storedModel),
	}
	s.handle("POST /train", s.handleTrain)
	s.handle("POST /predict", s.handlePredict)
	s.handle("GET /models", s.handleList)
	s.handle("GET /models/{id}", s.handleGet)
	s.handle("GET /aliases", s.handleAliases)
	s.handle("POST /models/promote", s.handlePromote)
	s.handle("POST /models/rollback", s.handleRollback)
	return s
}

// Runtime exposes the serving runtime for in-process composition (core
// pipeline, examples).
func (s *MLService) Runtime() *serving.Runtime { return s.runtime }

// Close stops the serving runtime's workers.
func (s *MLService) Close() { s.runtime.Close() }

func (s *MLService) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req TrainRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	train, err := req.Train.ToTable()
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("train table: %w", err))
		return
	}
	model, err := ml.NewByName(req.Algorithm, req.Seed)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := model.Fit(train); err != nil {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("fit: %w", err))
		return
	}
	evalTable := train
	if req.Eval != nil {
		evalTable, err = req.Eval.ToTable()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("eval table: %w", err))
			return
		}
	}
	metrics, err := ml.Evaluate(model, evalTable)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("evaluate: %w", err))
		return
	}

	id, ref, err := s.register(req.Algorithm, model, metrics)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, TrainResponse{ModelID: id, Metrics: metrics, Ref: ref})
}

// register stores a trained model in the serving registry under two
// aliases: the stable catalog id ("m0001", promoted immediately so the
// id always serves) and the algorithm name ("lgbm"), which versions
// across retrainings so operators can promote or roll back "lgbm@N".
// Content addressing deduplicates the underlying bytes.
func (s *MLService) register(algorithm string, model ml.Classifier, metrics ml.Metrics) (string, serving.Ref, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reg := s.runtime.Registry()
	id := fmt.Sprintf("m%04d", s.nextID+1)
	idRef, err := reg.Register(id, model)
	if err != nil {
		return "", serving.Ref{}, err
	}
	blob, algoTag, err := reg.Blob(idRef.ID)
	if err != nil {
		return "", serving.Ref{}, err
	}
	algoRef, err := reg.RegisterBytes(algorithm, algoTag, blob)
	if err != nil {
		return "", serving.Ref{}, err
	}
	s.nextID++
	s.models[id] = &storedModel{id: id, algo: algorithm, ref: algoRef, metrics: metrics}
	return id, algoRef, nil
}

func (s *MLService) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	probs, classes, err := s.runtime.Predict(r.Context(), req.ModelID, req.Instances)
	if err != nil {
		writePredictError(w, req.ModelID, err)
		return
	}
	if probs == nil {
		probs, classes = [][]float64{}, []int{}
	}
	writeJSON(w, http.StatusOK, PredictResponse{Classes: classes, Probs: probs})
}

// writePredictError maps serving-runtime errors onto HTTP: shed requests
// become 429 with a Retry-After back-off hint, unknown references 404,
// and scoring failures (e.g. a feature-dimension mismatch) 422.
func writePredictError(w http.ResponseWriter, ref string, err error) {
	var over *serving.OverloadedError
	switch {
	case errors.As(err, &over):
		w.Header().Set("Retry-After", retryAfterSeconds(over.RetryAfter))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, serving.ErrNotFound):
		writeError(w, http.StatusNotFound, fmt.Errorf("model %q not found", ref))
	default:
		writeError(w, http.StatusUnprocessableEntity, err)
	}
}

// retryAfterSeconds renders a back-off hint as the integer-seconds form
// of the Retry-After header, rounding sub-second hints up to 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(d / time.Second)
	if d%time.Second != 0 || secs < 1 {
		secs++
	}
	return fmt.Sprintf("%d", secs)
}

// modelInfo is the listing entry for one stored model.
type modelInfo struct {
	ModelID   string      `json:"modelId"`
	Algorithm string      `json:"algorithm"`
	Metrics   ml.Metrics  `json:"metrics"`
	Ref       serving.Ref `json:"ref"`
}

func (s *MLService) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]modelInfo, 0, len(s.models))
	for _, m := range s.models {
		infos = append(infos, modelInfo{ModelID: m.id, Algorithm: m.algo, Metrics: m.metrics, Ref: m.ref})
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ModelID < infos[j].ModelID })
	writeJSON(w, http.StatusOK, infos)
}

// handleGet returns the serialized model envelope so explainer services
// can reconstruct it. The path id accepts every registry reference form.
func (s *MLService) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	blob, _, err := s.runtime.Registry().Blob(id)
	if err != nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("model %q not found", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(blob); err != nil {
		return
	}
}

func (s *MLService) handleAliases(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.runtime.Registry().Aliases())
}

func (s *MLService) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req PromoteRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	reg := s.runtime.Registry()
	if err := reg.Promote(req.Name, req.Version); err != nil {
		status := http.StatusConflict
		if errors.Is(err, serving.ErrNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	id, err := reg.Resolve(req.Name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, AliasResponse{Name: req.Name, Version: req.Version, ID: id})
}

func (s *MLService) handleRollback(w http.ResponseWriter, r *http.Request) {
	var req RollbackRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ref, err := s.runtime.Registry().Rollback(req.Name)
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, serving.ErrNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, AliasResponse{Name: ref.Name, Version: ref.Version, ID: ref.ID})
}

// StoreModel registers an externally trained model (e.g. the output of a
// pipeline run) and returns its id — the "deploy" step of the paper's
// pipeline.
func (s *MLService) StoreModel(algorithm string, model ml.Classifier, metrics ml.Metrics) (string, error) {
	if model == nil {
		return "", fmt.Errorf("service: nil model")
	}
	if model.NumClasses() == 0 {
		return "", fmt.Errorf("service: model %q is not trained", algorithm)
	}
	id, _, err := s.register(algorithm, model, metrics)
	return id, err
}

// Model returns a stored model by registry reference (for in-process
// composition), deserializing from the registry if it has gone cold.
func (s *MLService) Model(ref string) (ml.Classifier, bool) {
	m, err := s.runtime.Registry().Model(ref)
	if err != nil {
		return nil, false
	}
	return m, true
}

// decodeModel reconstructs a classifier from an inline envelope.
func decodeModel(raw json.RawMessage) (ml.Classifier, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("missing model envelope")
	}
	return ml.UnmarshalModel(raw)
}
