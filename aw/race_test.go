//go:build race

package aw_test

func init() { raceEnabled = true }
