package serve

// TinyModel exposes the package's test graph to the external serve_test
// package, whose tests also need internal/fleet (which imports serve).
var TinyModel = tinyModel
