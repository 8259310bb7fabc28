package core

// Test-only exports for the external core_test package, whose tests drive
// core through serving (which imports core).
var (
	SharedModel     = sharedModel
	SharedHistModel = sharedHistModel
)

// Forget drops a departed instance's feature state, as a re-registered
// instance needs on the edge side of TestEdgeAgentMatchesCentral.
func (e *EdgeAgent) Forget(id string) {
	if e.eng != nil {
		e.eng.Release(id)
	}
}
