package serving

// Test-only exports for the external serving_test package, whose tests
// drive serving through autoscale (which imports serving).
var SharedTestModel = sharedTestModel
