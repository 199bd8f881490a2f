package api

import (
	"fmt"
	"net/http"
)

// Error codes. Codes are the stable, machine-readable half of the error
// contract: clients branch on Code, never on Message (which is free-form
// human context and may change between releases). New codes may be added
// within a version; unknown codes must be treated as non-retryable.
const (
	// CodeBadRequest: the request itself is malformed — unparsable JSON,
	// a non-integer slice index, a negative Last-Event-ID.
	CodeBadRequest = "bad_request"
	// CodeInvalidSpec: the request parsed but the Spec is not admissible
	// (unknown phantom or window, problem size over the hard limits).
	CodeInvalidSpec = "invalid_spec"
	// CodeNotFound: no such job (or it was deleted/pruned).
	CodeNotFound = "not_found"
	// CodeNotYetWritten: the requested slice is valid but its row root has
	// not handed it over yet; retry after a short wait (or use /events to be
	// told).
	CodeNotYetWritten = "not_yet_written"
	// CodeTerminal: the job already reached a terminal state that makes the
	// request meaningless — streaming slices of a failed/cancelled job, or
	// of a done one whose result has left the daemon's result cache.
	CodeTerminal = "terminal"
	// CodeNotTerminal: the operation requires a terminal job (DELETE of a
	// live job that could not be cancelled).
	CodeNotTerminal = "not_terminal"
	// CodeQueueFull: the admission queue holds its maximum number of jobs.
	CodeQueueFull = "queue_full"
	// CodeCostBudget: admitting the job would exceed the queued-work
	// seconds budget.
	CodeCostBudget = "cost_budget"
	// CodeWorkingSet: admitting the job would exceed the in-flight
	// working-set byte budget.
	CodeWorkingSet = "working_set"
	// CodeQuotaExhausted: the client's submission token bucket is empty.
	CodeQuotaExhausted = "quota_exhausted"
	// CodeShuttingDown: the server is draining and admits nothing.
	CodeShuttingDown = "shutting_down"
	// CodeUnavailable: a front router has no live backend for the request
	// (all backends down, or the owning backend died mid-job).
	CodeUnavailable = "unavailable"
	// CodeInternal: the server failed in a way the client cannot fix.
	CodeInternal = "internal"
)

// Error is the structured envelope every non-2xx response body carries:
//
//	{"code":"quota_exhausted","message":"client \"alice\": ...","retry_after_sec":1}
//
// It implements the error interface, so SDK calls surface it directly;
// errors.As(err, &apiErr) recovers the code from a wrapped chain.
type Error struct {
	Code       string  `json:"code"`
	Message    string  `json:"message"`
	RetryAfter float64 `json:"retry_after_sec,omitempty"` // hint, seconds; 0 = none
	// Status is the HTTP status the envelope arrived with (0 when built
	// locally); never on the wire. A relay re-emits it, so a code this build
	// does not know keeps the status its sender chose.
	Status int `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Message == "" {
		return "api: " + e.Code
	}
	return fmt.Sprintf("api: %s: %s", e.Code, e.Message)
}

// Retryable reports whether the same request may succeed if simply retried
// later (with backoff) against the same endpoint: transient saturation and
// not-yet-produced data, as opposed to caller bugs and settled outcomes.
func (e *Error) Retryable() bool { return Retryable(e.Code) }

// Retryable reports whether code denotes a transient condition. Unknown
// codes are conservatively non-retryable.
func Retryable(code string) bool {
	switch code {
	case CodeQueueFull, CodeCostBudget, CodeWorkingSet, CodeQuotaExhausted,
		CodeNotYetWritten, CodeUnavailable:
		return true
	}
	return false
}

// HTTPStatus maps an error code to its HTTP status. Unknown codes map to
// 500: an unrecognized failure is a server-side contract violation, not the
// client's fault.
func HTTPStatus(code string) int {
	switch code {
	case CodeBadRequest, CodeInvalidSpec:
		return http.StatusBadRequest
	case CodeNotFound, CodeNotYetWritten:
		return http.StatusNotFound
	case CodeTerminal, CodeNotTerminal:
		return http.StatusConflict
	case CodeQuotaExhausted:
		return http.StatusTooManyRequests
	case CodeQueueFull, CodeCostBudget, CodeWorkingSet, CodeShuttingDown, CodeUnavailable:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
