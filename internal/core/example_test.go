package core_test

import (
	"fmt"

	"decos/internal/core"
)

// The Fig. 11 mapping: every fault class resolves to exactly one
// maintenance action.
func ExampleActionFor() {
	for _, class := range []core.FaultClass{core.ComponentExternal, core.ComponentBorderline,
		core.ComponentInternal, core.JobExternal, core.JobBorderline,
		core.JobInherentSoftware, core.JobInherentSensor} {
		fmt.Printf("%-24s → %s\n", class, core.ActionFor(class, false))
	}
	// Output:
	// component-external       → no-action
	// component-borderline     → inspect-connector
	// component-internal       → replace-component
	// job-external             → replace-component
	// job-borderline           → update-configuration
	// job-inherent-software    → forward-to-oem
	// job-inherent-sensor      → inspect-transducer
}

// Building and reversing a fault-error-failure chain (Fig. 3).
func ExampleChain() {
	var c core.Chain
	fru := core.HardwareFRU(2)
	c.Append(core.Stage{Kind: core.StageFault, FRU: fru, Detail: "crack in PCB"})
	c.Append(core.Stage{Kind: core.StageError, FRU: fru, Detail: "bit flip in frame buffer"})
	c.Append(core.Stage{Kind: core.StageFailure, FRU: fru, Detail: "corrupted frame on the bus"})
	root, _ := c.Root()
	fmt.Println("complete:", c.Complete())
	fmt.Println("root cause:", root.Detail)
	// Output:
	// complete: true
	// root cause: crack in PCB
}

// The model's audit equivalences: a job-external fault IS a
// component-internal fault, and the merged inherent verdict covers both
// subclasses.
func ExampleFaultClass_Matches() {
	fmt.Println(core.ComponentInternal.Matches(core.JobExternal))
	fmt.Println(core.JobInherentSensor.Matches(core.JobInherent))
	fmt.Println(core.ComponentExternal.Matches(core.ComponentInternal))
	// Output:
	// true
	// true
	// false
}
