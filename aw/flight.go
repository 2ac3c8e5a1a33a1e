package aw

import "awra/internal/obs/flight"

// Flight-recorder surface of the public API. Every Run/RunCompiled
// commits its finished attempt's record — span tree, per-node profile,
// guard stats — into the process-global flight ring under
// ExecOptions.TraceID (generated when empty); runs sharing a trace ID
// form one trace's attempt chain. When the run carries a History, a
// pinned attempt's history line (errors, cancellations, budget trips,
// repeated trace IDs, slow queries) keeps its span tree, so slow-query
// post-mortems survive restarts.

// FlightTrace is one completed query's flight-recorder entry.
type FlightTrace = flight.Trace

// NewTraceID returns a fresh flight-recorder trace ID (32 hex digits,
// the W3C trace-context format). Callers that need the ID before the
// run — to echo it to a client or print it alongside results —
// generate one here and pass it via ExecOptions.TraceID.
func NewTraceID() string { return flight.NewTraceID() }

// LookupTrace returns the retained flight trace with the given ID.
func LookupTrace(id string) (FlightTrace, bool) { return flight.Default.Get(id) }

// SetSlowThresholdUs sets the operator slow-query threshold in
// microseconds (0 reverts to the recorder's internal p99 fallback).
// The serve layer feeds it from its overload controller's sliding
// latency window.
func SetSlowThresholdUs(us int64) { flight.Default.SetSlowThreshold(us) }
