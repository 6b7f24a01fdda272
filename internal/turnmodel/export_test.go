package turnmodel

// ReferenceRelease exports the Phase 3 oracle to the external test
// package, whose tests may import packages (core, routing) that import
// turnmodel.
var ReferenceRelease = referenceRelease
