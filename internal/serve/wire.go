package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	ramiel "repro"
)

// The /v1/infer wire format. This file is the only code that knows it:
// ramield's handler, the fleet front's handler and the fleet's remote
// client all decode and encode requests and responses through it. It
// converts and shape-checks tensors; checking feeds against a model is
// Server.Infer's job, so every route into a server validates the same way.

// TensorJSON is the wire form of a dense float32 tensor.
type TensorJSON struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

// InferRequest is the body of POST /v1/infer. Either Inputs carries the
// full feed, or Seed asks the server to generate deterministic random
// inputs (handy for curl smoke tests).
type InferRequest struct {
	Model     string                `json:"model"`
	Inputs    map[string]TensorJSON `json:"inputs,omitempty"`
	Seed      *uint64               `json:"seed,omitempty"`
	NoBatch   bool                  `json:"no_batch,omitempty"`
	TimeoutMs int                   `json:"timeout_ms,omitempty"`
}

// InferResponse is the body of a successful /v1/infer.
type InferResponse struct {
	Model     string                `json:"model"`
	RequestID uint64                `json:"request_id"`
	Outputs   map[string]TensorJSON `json:"outputs"`
	BatchSize int                   `json:"batch_size"`
	LatencyUs int64                 `json:"latency_us"`
	// Stage breakdown of LatencyUs (see the stage histograms in /v1/stats):
	// micro-batch assembly wait, pool queue wait, and session execution.
	BatchWaitUs int64 `json:"batch_wait_us"`
	QueueWaitUs int64 `json:"queue_wait_us"`
	ExecUs      int64 `json:"exec_us"`
}

// ErrorResponse is the body of every failed request.
type ErrorResponse struct {
	Error string `json:"error"`
	// Cause is the classification label also used by the errors_by_cause
	// counters and trace spans (validation, compile, execution, deadline,
	// canceled, shutdown, ...). Every /v1/infer failure carries one; other
	// endpoints leave it empty.
	Cause string `json:"cause,omitempty"`
}

// ErrBadRequest marks a /v1/infer request rejected before any model sees
// it: malformed JSON, no "model", or neither "inputs" nor "seed" (400,
// cause "validation").
var ErrBadRequest = errors.New("serve: bad request")

// ErrMethodNotAllowed marks a /v1/infer request that is not a POST (405,
// cause "validation").
var ErrMethodNotAllowed = fmt.Errorf("%w: POST only", ErrBadRequest)

// ErrBodyTooLarge marks an HTTP request body rejected by the MaxBodyBytes
// cap (413, cause "body_too_large").
var ErrBodyTooLarge = errors.New("serve: request body too large")

// DecodeInfer reads one /v1/infer request: it requires POST, caps the body
// at maxBody bytes (none when maxBody <= 0), decodes the JSON, requires
// "model" and converts every input tensor (see decodeTensors). feeds is
// nil in seed mode, where the caller generates them from *req.Seed.
// Errors classify through StatusFor and CauseOf.
func DecodeInfer(w http.ResponseWriter, r *http.Request, maxBody int64) (req InferRequest, feeds ramiel.Env, err error) {
	if r.Method != http.MethodPost {
		return req, nil, ErrMethodNotAllowed
	}
	if maxBody > 0 {
		// Bound the body before the decoder touches it: an unbounded JSON
		// array must not be able to allocate past the configured cap.
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return req, nil, fmt.Errorf("%w (limit %d bytes)", ErrBodyTooLarge, mbe.Limit)
		}
		return req, nil, fmt.Errorf("%w: decoding request: %w", ErrBadRequest, err)
	}
	switch {
	case req.Model == "":
		return req, nil, fmt.Errorf("%w: missing \"model\"", ErrBadRequest)
	case len(req.Inputs) > 0:
		feeds, err = decodeTensors(req.Inputs)
		return req, feeds, err
	case req.Seed == nil:
		return req, nil, fmt.Errorf("%w: provide \"inputs\" or \"seed\"", ErrBadRequest)
	}
	return req, nil, nil
}

// WithTimeout bounds ctx by the request's timeout_ms, when it sets one.
func (req *InferRequest) WithTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if req.TimeoutMs <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
}

// EncodeInferRequest is DecodeInfer's inverse, for clients of /v1/infer:
// the JSON body asking model to run feeds. ctx's deadline rides along as
// timeout_ms, so the server's admission and deadline handling see the
// caller's budget.
func EncodeInferRequest(ctx context.Context, model string, feeds ramiel.Env, noBatch bool) ([]byte, error) {
	req := InferRequest{Model: model, Inputs: encodeTensors(feeds), NoBatch: noBatch}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.TimeoutMs = int(ms)
		}
	}
	return json.Marshal(req)
}

// NewInferResponse is the wire form of a served request's outputs and meta.
func NewInferResponse(model string, outs ramiel.Env, meta InferMeta) InferResponse {
	return InferResponse{
		Model:       model,
		RequestID:   meta.RequestID,
		Outputs:     encodeTensors(outs),
		BatchSize:   meta.BatchSize,
		LatencyUs:   meta.Latency.Microseconds(),
		BatchWaitUs: meta.BatchWait.Microseconds(),
		QueueWaitUs: meta.QueueWait.Microseconds(),
		ExecUs:      meta.Exec.Microseconds(),
	}
}

// DecodeInferResponse is NewInferResponse's inverse, for clients of
// /v1/infer: it decodes a 200 body into its outputs and meta.
func DecodeInferResponse(body io.Reader) (ramiel.Env, InferMeta, error) {
	var ir InferResponse
	if err := json.NewDecoder(body).Decode(&ir); err != nil {
		return nil, InferMeta{}, fmt.Errorf("decoding response: %w", err)
	}
	outs, err := decodeTensors(ir.Outputs)
	if err != nil {
		// A malformed output is the server's fault, not an invalid feed:
		// keep the message, drop the validation class.
		return nil, InferMeta{}, fmt.Errorf("decoding response: %v", err)
	}
	return outs, InferMeta{
		RequestID: ir.RequestID,
		BatchSize: ir.BatchSize,
		Latency:   time.Duration(ir.LatencyUs) * time.Microsecond,
		BatchWait: time.Duration(ir.BatchWaitUs) * time.Microsecond,
		QueueWait: time.Duration(ir.QueueWaitUs) * time.Microsecond,
		Exec:      time.Duration(ir.ExecUs) * time.Microsecond,
	}, nil
}

// encodeTensors converts tensors to their wire form. The data slices are
// shared, not copied.
func encodeTensors(env ramiel.Env) map[string]TensorJSON {
	m := make(map[string]TensorJSON, len(env))
	for name, t := range env {
		m[name] = TensorJSON{Shape: t.Shape(), Data: t.Data()}
	}
	return m
}

// decodeTensors converts wire tensors, checking that each shape is valid
// (non-negative, no overflowing element count) and matches its data
// length. The data slices are shared, not copied. Errors wrap
// ramiel.ErrInvalidFeeds.
func decodeTensors(m map[string]TensorJSON) (ramiel.Env, error) {
	env := make(ramiel.Env, len(m))
	for name, tj := range m {
		shape := ramiel.NewShape(tj.Shape...)
		if !shape.Valid() {
			return nil, fmt.Errorf("serve: %w: tensor %q has invalid shape %v", ramiel.ErrInvalidFeeds, name, tj.Shape)
		}
		if shape.Numel() != len(tj.Data) {
			return nil, fmt.Errorf("serve: %w: tensor %q: shape %v wants %d values, got %d",
				ramiel.ErrInvalidFeeds, name, tj.Shape, shape.Numel(), len(tj.Data))
		}
		env[name] = ramiel.NewTensor(shape, tj.Data)
	}
	return env, nil
}

// WriteJSON writes v as the JSON body of a response with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes err as an ErrorResponse with status code and cause
// label (empty outside /v1/infer).
func WriteError(w http.ResponseWriter, code int, cause string, err error) {
	WriteJSON(w, code, ErrorResponse{Error: err.Error(), Cause: cause})
}

// DecodeErrorResponse is WriteError's inverse, for clients: the message and
// cause of a failed response, read through a 64 KiB bound. A body that is
// not an error response keeps the HTTP status line as its message.
func DecodeErrorResponse(resp *http.Response) ErrorResponse {
	er := ErrorResponse{Error: resp.Status}
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil {
		var got ErrorResponse
		if json.Unmarshal(b, &got) == nil && got.Error != "" {
			er = got
		}
	}
	return er
}
