// Package fleet implements the engineering-feedback loop of the paper's
// Section V-C: correlating the field data gathered by the online diagnostic
// services of a representative vehicle population. Because every vehicle
// runs the same job software but has its own transducers and hardware, a
// job-inherent verdict that recurs across many vehicles evidences a
// software design fault (a Heisenbug that escaped testing), while an
// isolated verdict points at that vehicle's transducer or hardware. The
// package also measures the 20-80 concentration the paper cites (Fenton &
// Ohlsson): a small share of the software modules causes the majority of
// field failures.
package fleet

import "decos/internal/core"

// Incident is one job-inherent finding reported by one vehicle's
// diagnostic DAS.
type Incident struct {
	Vehicle int
	// Job is the software FRU's qualified name ("das/job").
	Job string
	// Class is the reported class (JobInherent or a subclass).
	Class core.FaultClass
	// Pattern is the ONA pattern name, retained for engineering review.
	Pattern string
}

// JobStat is the fleet statistic of one software module.
type JobStat struct {
	Job string `json:"job"`
	// Vehicles is the number of distinct vehicles reporting the job.
	Vehicles int `json:"vehicles"`
	// Share is Vehicles / fleet size.
	Share float64 `json:"share"`
	// Systematic classifies the fault as a software design fault (true)
	// or a vehicle-local transducer/hardware issue (false).
	Systematic bool `json:"systematic"`
}
