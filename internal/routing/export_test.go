package routing

// CheckTableMatchesReference exports the table differential to the
// external test package, whose tests may import packages (core) that
// import routing.
var CheckTableMatchesReference = checkTableMatchesReference
