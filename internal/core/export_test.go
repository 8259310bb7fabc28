package core

// Test-only exports for the external core_test package, whose tests drive
// core through serving (which imports core).
var (
	SharedModel     = sharedModel
	SharedHistModel = sharedHistModel
)
