// Package api defines the v1 wire contract shared by every HTTP surface
// of the system (internal/server and internal/router): the error
// envelope, the registry of machine-readable error codes, and the
// assembly of search bodies from already-encoded answers (body.go).
//
// Before this package, each call site minted its own code string and the
// envelope shape had drifted between the shard server and the router.
// The v1 contract is one schema:
//
//	{"error": {"code": "...", "field": "...", "detail": "..."}}
//
// where code is a slug from the registry below, field names the
// offending request field for validation errors, and detail is the
// human-readable diagnosis. During the deprecation window the envelope
// additionally carries the legacy fields clients may still read: a
// top-level "code" mirroring error.code, and error.status /
// error.message mirroring the HTTP status and detail. New clients must
// not depend on the legacy fields; docs/ERRORS.md is the registry of
// record and states the removal policy.
package api

import "net/http"

// Error codes of the v1 registry. Every error either surface emits uses
// one of these slugs; adding a call site with a new literal means adding
// it here and to docs/ERRORS.md first.
const (
	// CodeBadRequest: a structurally invalid request (unknown field or
	// parameter, malformed value, missing required field).
	CodeBadRequest = "bad_request"
	// CodeBadOptions: search options rejected by core's typed validation
	// (field carries the offending option).
	CodeBadOptions = "bad_options"
	// CodeBadBody: the request body is not valid JSON.
	CodeBadBody = "bad_body"
	// CodeBodyTooLarge: the request body exceeds the wire cap.
	CodeBodyTooLarge = "body_too_large"
	// CodeBatchTooLarge: a /v1/batch request exceeds the tenant's batch
	// cap.
	CodeBatchTooLarge = "batch_too_large"
	// CodeMutateTooLarge: a /v1/mutate batch exceeds the tenant's op cap.
	CodeMutateTooLarge = "mutate_too_large"
	// CodeMethodNotAllowed: wrong HTTP method for the endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeOverCapacity: the global admission gate is at its in-flight
	// limit (429 + Retry-After).
	CodeOverCapacity = "over_capacity"
	// CodeTenantOverCapacity: the tenant's in-flight quota is exhausted
	// (429 + Retry-After).
	CodeTenantOverCapacity = "tenant_over_capacity"
	// CodeDeadlineExceeded: the deadline expired before the query could
	// start executing (mid-search expiry returns a truncated 200 instead).
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeCanceled: the client went away before the query could start.
	CodeCanceled = "canceled"
	// CodeInternal: unexpected server-side failure.
	CodeInternal = "internal"
	// CodeNotMutable: mutation endpoint on a server started without live
	// mutations.
	CodeNotMutable = "not_mutable"
	// CodeMutateDenied: the tenant's limits forbid mutations.
	CodeMutateDenied = "mutate_denied"
	// CodeWALAppendFailed: the mutation batch could not be made durable;
	// it was NOT applied.
	CodeWALAppendFailed = "wal_append_failed"
	// CodeCompactFailed: compaction failed; the previous state still
	// serves.
	CodeCompactFailed = "compact_failed"
	// CodeShardError: a shard backend failed and no replica could answer
	// (router, 502).
	CodeShardError = "shard_error"
	// CodeShardRejected: a shard backend rejected the request with a 4xx
	// that carried no code of its own (router passthrough fallback).
	CodeShardRejected = "shard_rejected"
	// CodeNotRouted: the endpoint is not available through the router.
	CodeNotRouted = "not_routed"
	// CodeNotPrimary: mutation sent to a replication follower; the error
	// detail names the primary's URL.
	CodeNotPrimary = "not_primary"
)

// CodeInfo documents one registry entry: the HTTP status the code is
// emitted with and a one-line description for docs/ERRORS.md.
type CodeInfo struct {
	Status      int
	Description string
}

// Registry is the v1 error-code registry. Tests in internal/server and
// internal/router assert every emitted code resolves here.
var Registry = map[string]CodeInfo{
	CodeBadRequest:         {http.StatusBadRequest, "structurally invalid request (unknown or malformed field/parameter)"},
	CodeBadOptions:         {http.StatusBadRequest, "search options rejected by typed validation; field names the option"},
	CodeBadBody:            {http.StatusBadRequest, "request body is not valid JSON"},
	CodeBodyTooLarge:       {http.StatusRequestEntityTooLarge, "request body exceeds the wire cap"},
	CodeBatchTooLarge:      {http.StatusBadRequest, "batch exceeds the tenant's query cap"},
	CodeMutateTooLarge:     {http.StatusBadRequest, "mutation batch exceeds the tenant's op cap"},
	CodeMethodNotAllowed:   {http.StatusMethodNotAllowed, "wrong HTTP method for this endpoint"},
	CodeOverCapacity:       {http.StatusTooManyRequests, "server at its global in-flight limit; honor Retry-After"},
	CodeTenantOverCapacity: {http.StatusTooManyRequests, "tenant in-flight quota exhausted; honor Retry-After"},
	CodeDeadlineExceeded:   {http.StatusGatewayTimeout, "deadline expired before the query could start executing"},
	CodeCanceled:           {http.StatusServiceUnavailable, "request canceled before the query could start executing"},
	CodeInternal:           {http.StatusInternalServerError, "unexpected server-side failure"},
	CodeNotMutable:         {http.StatusNotImplemented, "server was started without live mutations"},
	CodeMutateDenied:       {http.StatusForbidden, "tenant is not allowed to mutate"},
	CodeWALAppendFailed:    {http.StatusServiceUnavailable, "batch could not be made durable; it was not applied"},
	CodeCompactFailed:      {http.StatusInternalServerError, "compaction failed; previous state still serves"},
	CodeShardError:         {http.StatusBadGateway, "a shard failed and no replica could answer"},
	CodeShardRejected:      {http.StatusBadRequest, "shard rejected the request without a code of its own"},
	CodeNotRouted:          {http.StatusNotImplemented, "endpoint not available through the router"},
	CodeNotPrimary:         {http.StatusConflict, "this server is a replication follower; write to the primary named in detail"},
}

// Known reports whether code is in the v1 registry.
func Known(code string) bool {
	_, ok := Registry[code]
	return ok
}

// ErrorDetail is the body of the v1 error envelope. Code, Field and
// Detail are the contract; Status and Message are legacy aliases
// (deprecated, mirroring the HTTP status line and Detail) kept while
// pre-v1 clients migrate.
type ErrorDetail struct {
	Code   string `json:"code"`
	Field  string `json:"field,omitempty"`
	Detail string `json:"detail"`

	// Deprecated: legacy aliases, removed after the v1 deprecation
	// window. Read Code/Detail and the HTTP status line instead.
	Status  int    `json:"status,omitempty"`
	Message string `json:"message,omitempty"`
}

// ErrorEnvelope is the complete v1 error response body.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`

	// Deprecated: LegacyCode mirrors Error.Code at the top level for
	// pre-v1 clients; removed after the deprecation window.
	LegacyCode string `json:"code,omitempty"`
}

// NewError assembles a v1 error envelope with the legacy mirror fields
// filled in.
func NewError(status int, code, field, detail string) ErrorEnvelope {
	return ErrorEnvelope{
		Error:      NewErrorDetail(status, code, field, detail),
		LegacyCode: code,
	}
}

// NewErrorDetail assembles one v1 error detail (the element shape used
// by per-element error arrays, e.g. /v1/batch) with legacy mirrors.
func NewErrorDetail(status int, code, field, detail string) ErrorDetail {
	return ErrorDetail{
		Code:    code,
		Field:   field,
		Detail:  detail,
		Status:  status,
		Message: detail,
	}
}

// V1Only strips the deprecated mirror fields, leaving the pure v1
// contract — what servers emit once started with -legacy-errors=false.
func (e ErrorEnvelope) V1Only() ErrorEnvelope {
	return ErrorEnvelope{Error: e.Error.V1Only()}
}

// V1Only strips the deprecated mirror fields from one error detail.
func (d ErrorDetail) V1Only() ErrorDetail {
	return ErrorDetail{Code: d.Code, Field: d.Field, Detail: d.Detail}
}
