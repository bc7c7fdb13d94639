package main

import "time"

// The harness's only wall-clock reads. Everything the benchmark times
// (repetitions, spans, request latencies, socket deadlines) goes through
// these two. They are taken as function values on one line so that a single
// directive covers them; time.Since on a time that carries a monotonic
// reading is one clock read where time.Now is two, which is what keeps a
// span cheap enough to put around every netsim.DeliverBatch.
//
//lint:allow nowallclock: a benchmark measures host time by definition; readings are printed as metrics and never reach a dataset, golden or WAL
var clockNow, clockSince = time.Now, time.Since

// benchEpoch anchors every timestamp the harness takes; spans and request
// due times are nanosecond offsets from it.
var benchEpoch = clockNow()

// wallNow is for the few places that need a time.Time (socket deadlines).
func wallNow() time.Time { return clockNow() }

// nanos returns monotonic nanoseconds since the harness started.
func nanos() int64 { return int64(clockSince(benchEpoch)) }

// secondsSince converts a nanos() reading into elapsed seconds.
func secondsSince(start int64) float64 { return float64(nanos()-start) / 1e9 }
