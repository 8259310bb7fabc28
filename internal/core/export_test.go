package core

// SharedModel exports the test model to the external core_test package,
// whose tests drive core through serving (which imports core).
var SharedModel = sharedModel
