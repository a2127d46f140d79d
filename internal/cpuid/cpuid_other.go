//go:build !amd64

package cpuid

func hasAVX2() bool { return false }
