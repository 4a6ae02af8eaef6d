package sim

// RunInterpreted exposes the reference interpreter to the external
// test package, whose case-study equivalence tests import casestudy
// (which imports sim).
var RunInterpreted = runInterpreted
