package service

// Wire protocol of the framed-JSONL socket: each frame is one JSON
// object on one line, requests flowing client→daemon and exactly one
// response frame per request flowing back, in order. The protocol is
// deliberately dumb — no multiplexing, no binary framing — because the
// batching, sharding, and backpressure all live behind the Service
// admission calls, and a line-oriented protocol can be driven with nc
// for debugging.
//
// Ops:
//
//	{"op":"submit","job":{...JobSpec...}}
//	{"op":"feed","id":"j1","samples":[{"t_us":400000,"scrout":0.4},...]}
//	{"op":"verdict","id":"j1"}            → verdict or pending
//	{"op":"wait","id":"j1","timeout_ms":30000}
//	{"op":"verdicts","after":0,"limit":100} → one page of decided verdicts
//	{"op":"stats"}                        → service counters
//	{"op":"ping"}
//
// Responses carry ok plus op-specific payloads; an error response is
// {"ok":false,"error":"..."} with the request's op echoed. The verdicts
// op pages exactly like GET /verdicts: at most limit verdicts with seq
// > after (limit 0 = DefaultVerdictsLimit, capped at MaxVerdictsLimit),
// and "more":true while verdicts remain past the page.
const (
	OpSubmit   = "submit"
	OpFeed     = "feed"
	OpVerdict  = "verdict"
	OpWait     = "wait"
	OpVerdicts = "verdicts"
	OpStats    = "stats"
	OpPing     = "ping"
)

// Request is one client frame.
type Request struct {
	Op string `json:"op"`
	// Job is the submission payload (OpSubmit).
	Job *JobSpec `json:"job,omitempty"`
	// ID addresses a job (OpFeed, OpVerdict, OpWait).
	ID string `json:"id,omitempty"`
	// Samples is the OpFeed payload.
	Samples []StreamSample `json:"samples,omitempty"`
	// TimeoutMS bounds an OpWait (0 = the server's default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// After and Limit page an OpVerdicts listing: the verdicts with
	// Seq > After, at most Limit of them (0 = DefaultVerdictsLimit).
	After int64 `json:"after,omitempty"`
	Limit int   `json:"limit,omitempty"`
}

// Response is one daemon frame.
type Response struct {
	OK    bool   `json:"ok"`
	Op    string `json:"op"`
	ID    string `json:"id,omitempty"`
	Error string `json:"error,omitempty"`
	// Pending marks an OpVerdict reply for a job still in flight.
	Pending bool `json:"pending,omitempty"`
	// Verdict answers OpVerdict/OpWait; Verdicts answers OpVerdicts,
	// with More set when verdicts remain past the page.
	Verdict  *Verdict  `json:"verdict,omitempty"`
	Verdicts []Verdict `json:"verdicts,omitempty"`
	More     bool      `json:"more,omitempty"`
	// Counters answers OpStats.
	Counters map[string]int64 `json:"counters,omitempty"`
}
