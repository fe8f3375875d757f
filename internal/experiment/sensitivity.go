package experiment

import (
	"fmt"
	"io"
	"time"

	"faasbatch/internal/node"
	"faasbatch/internal/workload"
)

// sensitivityKnob is one calibrated node parameter being perturbed.
type sensitivityKnob struct {
	name  string
	apply func(*node.Config, float64)
}

// sensitivityKnobs lists the calibration constants that could plausibly
// flip the paper's conclusions if they were wrong.
var sensitivityKnobs = []sensitivityKnob{
	{"CreateCPUWork", func(c *node.Config, f float64) {
		c.CreateCPUWork = time.Duration(float64(c.CreateCPUWork) * f)
	}},
	{"ContainerInitCPUWork", func(c *node.Config, f float64) {
		c.ContainerInitCPUWork = time.Duration(float64(c.ContainerInitCPUWork) * f)
	}},
	{"ColdStartLatency", func(c *node.Config, f float64) {
		c.ColdStartLatency = time.Duration(float64(c.ColdStartLatency) * f)
	}},
	{"ContainerIdleCPU", func(c *node.Config, f float64) {
		c.ContainerIdleCPU *= f
	}},
	{"ContainerMem", func(c *node.Config, f float64) {
		c.ContainerMem = int64(float64(c.ContainerMem) * f)
	}},
}

// RunSensitivity perturbs each calibrated node constant by 0.5x and 2x
// and reports whether the headline orderings survive: FaaSBatch fewer
// containers than Vanilla, lower p90 latency, lower CPU. The reproduction
// is only credible if its conclusions do not hinge on any single
// calibration value.
func RunSensitivity(w io.Writer, opts Options) error {
	tr, err := evalTrace(workload.IO, opts)
	if err != nil {
		return err
	}
	tbl := NewTable(
		"Sensitivity — headline orderings under 0.5x / 2x calibration perturbations (I/O workload)",
		"knob", "factor", "containers FB/V", "p90 FB/V", "cpu FB/V", "orderings hold")
	for _, knob := range sensitivityKnobs {
		for _, factor := range []float64{0.5, 1.0, 2.0} {
			ncfg := node.DefaultConfig()
			knob.apply(&ncfg, factor)
			var results [2]*Result
			for i, p := range []PolicyKind{PolicyFaaSBatch, PolicyVanilla} {
				res, err := Run(Config{Policy: p, Trace: tr, Seed: opts.Seed, Node: ncfg})
				if err != nil {
					return fmt.Errorf("sensitivity %s x%.1f %v: %w", knob.name, factor, p, err)
				}
				results[i] = res
			}
			fb, va := results[0], results[1]
			fbP90 := fb.CDF(EndToEnd).P(0.90)
			vaP90 := va.CDF(EndToEnd).P(0.90)
			holds := fb.TotalContainers < va.TotalContainers &&
				fbP90 < vaP90 &&
				fb.CPUUtil < va.CPUUtil
			tbl.AddRow(knob.name, fmt.Sprintf("%.1fx", factor),
				fmt.Sprintf("%d/%d", fb.TotalContainers, va.TotalContainers),
				fmt.Sprintf("%v/%v", fbP90.Round(time.Millisecond), vaP90.Round(time.Millisecond)),
				fmt.Sprintf("%.1f%%/%.1f%%", fb.CPUUtil*100, va.CPUUtil*100),
				holds)
		}
	}
	return tbl.Render(w)
}
