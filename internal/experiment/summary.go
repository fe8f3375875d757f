package experiment

import (
	"fmt"
	"time"

	"faasbatch/internal/workload"
)

// Summary is a flat, JSON-friendly digest of one evaluation run, for
// scripting around cmd/faasbench (-summary).
type Summary struct {
	// Policy names the scheduler.
	Policy string `json:"policy"`
	// Workload is "cpu" or "io".
	Workload string `json:"workload"`
	// Invocations is the replayed invocation count.
	Invocations int `json:"invocations"`
	// Containers is the number provisioned.
	Containers int `json:"containers"`
	// ColdStarts and WarmStarts split acquisitions.
	ColdStarts int `json:"coldStarts"`
	WarmStarts int `json:"warmStarts"`
	// SchedP50Millis .. TotalP99Millis summarise the latency CDFs.
	SchedP50Millis float64 `json:"schedP50Millis"`
	SchedP99Millis float64 `json:"schedP99Millis"`
	ColdP99Millis  float64 `json:"coldP99Millis"`
	ExecP50Millis  float64 `json:"execP50Millis"`
	ExecP99Millis  float64 `json:"execP99Millis"`
	TotalP50Millis float64 `json:"totalP50Millis"`
	TotalP99Millis float64 `json:"totalP99Millis"`
	// AvgMemMB is the time-averaged node memory.
	AvgMemMB float64 `json:"avgMemMB"`
	// CPUUtilPercent is mean CPU utilisation.
	CPUUtilPercent float64 `json:"cpuUtilPercent"`
	// ClientMemPerInvocationMB is the Fig. 14d metric.
	ClientMemPerInvocationMB float64 `json:"clientMemPerInvocationMB"`
	// MakespanMillis is the completion time of the last invocation.
	MakespanMillis float64 `json:"makespanMillis"`
}

// Summarize digests a Result.
func Summarize(res *Result, workloadName string) Summary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	sched := res.CDF(Scheduling)
	cold := res.CDF(ColdStart)
	exec := res.CDF(Execution)
	tot := res.CDF(EndToEnd)
	return Summary{
		Policy:                   res.Policy,
		Workload:                 workloadName,
		Invocations:              len(res.Records),
		Containers:               res.TotalContainers,
		ColdStarts:               res.ColdStarts,
		WarmStarts:               res.WarmStarts,
		SchedP50Millis:           ms(sched.P(0.5)),
		SchedP99Millis:           ms(sched.P(0.99)),
		ColdP99Millis:            ms(cold.P(0.99)),
		ExecP50Millis:            ms(exec.P(0.5)),
		ExecP99Millis:            ms(exec.P(0.99)),
		TotalP50Millis:           ms(tot.P(0.5)),
		TotalP99Millis:           ms(tot.P(0.99)),
		AvgMemMB:                 res.AvgMemBytes / (1 << 20),
		CPUUtilPercent:           res.CPUUtil * 100,
		ClientMemPerInvocationMB: res.ClientMemPerInvocation / (1 << 20),
		MakespanMillis:           ms(res.Makespan),
	}
}

// SummarizeWorkload runs all four policies on the named workload ("cpu"
// or "io") and returns their summaries, sharing the derived Kraken SLOs.
func SummarizeWorkload(workloadName string, opts Options) ([]Summary, error) {
	var kind workload.Kind
	switch workloadName {
	case "cpu":
		kind = workload.CPUIntensive
	case "io":
		kind = workload.IO
	default:
		return nil, fmt.Errorf("experiment: unknown workload %q (cpu or io)", workloadName)
	}
	tr, err := evalTrace(kind, opts)
	if err != nil {
		return nil, err
	}
	results, _, err := runPolicies(tr, 200*time.Millisecond, opts.Seed, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Summary, 0, len(AllPolicies))
	for _, p := range AllPolicies {
		out = append(out, Summarize(results[p], workloadName))
	}
	return out, nil
}
