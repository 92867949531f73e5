//go:build race

package main

// raceEnabled lifts the wall-clock budget: the detector slows the tree's
// prefill and every transaction several times over.
const raceEnabled = true
