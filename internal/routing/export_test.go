package routing

// CheckTableMatchesReference exports the table differential to the
// external test package, whose tests may import packages (core) that
// import routing.
var CheckTableMatchesReference = checkTableMatchesReference

// CheckVerifyMatchesReference exports the Verify differential the same
// way.
var CheckVerifyMatchesReference = checkVerifyMatchesReference

// BlockSizes exports the block-boundary network sizes the differentials
// add, as {switches, ports}.
var BlockSizes = blockSizes
