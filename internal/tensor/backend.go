package tensor

import (
	"fmt"
	"os"
)

// Kernel backend dispatch. The numeric kernels — the f64 blocked GEMM
// micro-kernels (blocked.go), the vectorized elementwise layer
// (elemwise.go), the f32 merge's Axpy32 (precision32.go) and the robust
// merge's compare-exchange and lane screen (order.go) — pick their tier
// here, with f32 vectors carrying twice the lanes of their f64 twins.
// The f32 GEMM (blocked32.go) has no vector kernel and runs the
// portable 4×4 tile on every backend:
//
//	backend   f64 lanes / GEMM tile   f32 Axpy32 lanes   sort network (f64/f32)   f32 GEMM tile
//	avx512    8-wide ZMM, 8×8 tiles   16-wide ZMM        4/8-wide YMM             4×4 (portable)
//	avx       4-wide YMM, 4×4 tiles   8-wide YMM         4/8-wide YMM             4×4 (portable)
//	neon      2-wide, 4×4 tiles       generic core       generic core             4×4 (portable)
//	generic   pure Go, 4×4 tiles      pure Go            pure Go                  4×4 (portable)
//
// (amd64 offers avx512/avx, arm64 neon; the generic element kernels of
// generic.go cover every GOARCH and both widths.)
//
// Every tier obeys the same determinism contract: one rounding per
// multiply and one per add, never fused, with each output element
// accumulated along a single ascending-k chain. Vector width only
// changes how many independent element chains advance per instruction,
// never the per-element operation order, so all backends are
// BIT-identical to the generic reference (test-enforced per backend and
// with each backend force-disabled; the scalar kernels force
// per-operation rounding with explicit float64(·) conversions to block
// compiler FMA contraction — see blocked.go).
//
// Dispatch order is widest-first: avx512 → avx → generic on amd64,
// neon → generic on arm64. The TENSOR_BACKEND environment variable
// forces a narrower tier (it can never enable hardware the host lacks),
// so CI and benchmarks can compare backends on one machine; an unknown
// or unsupported value fails loudly at process start rather than
// silently falling back.
var (
	// useAVX512 gates the 8-wide ZMM micro-kernels (amd64 with
	// OS-enabled AVX-512F). Tests flip it to force the fallback chain.
	useAVX512 bool
	// useAVX gates the 4-wide YMM micro-kernels (amd64 with OS-enabled
	// AVX). Tests flip it to cover the pure-Go fallback on AVX hosts.
	useAVX bool
	// useNEON gates the 2-wide float64x2 micro-kernel (arm64; ASIMD is
	// architecturally baseline there).
	useNEON bool
)

func init() {
	useAVX512, useAVX, useNEON = detectBackends()
	if v := os.Getenv("TENSOR_BACKEND"); v != "" {
		if err := SetBackend(v); err != nil {
			panic(fmt.Sprintf("tensor: invalid TENSOR_BACKEND: %v", err))
		}
	}
}

// KernelBackend reports which kernel implementation tier is active:
// "avx512", "avx", "neon" or "generic". All tiers are bit-identical;
// only throughput differs. Benchmarks record it per measurement so perf
// expectations can be keyed to the backend, and the TENSOR_BACKEND
// override surfaces here so a forced run is self-describing.
func KernelBackend() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX:
		return "avx"
	case useNEON:
		return "neon"
	default:
		return "generic"
	}
}

// SetBackend forces dispatch to the named tier ("avx512", "avx", "neon"
// or "generic"). Requesting hardware the host does not have, or an
// unknown name, is an error and leaves dispatch unchanged — init turns
// that into a startup panic for TENSOR_BACKEND so a typo in CI
// configuration cannot silently benchmark the wrong kernels. Not safe
// to call concurrently with running kernels; it exists for process
// start, tests and benchmark harnesses.
func SetBackend(name string) error {
	hasAVX512, hasAVX, hasNEON := detectBackends()
	switch name {
	case "generic":
		useAVX512, useAVX, useNEON = false, false, false
	case "avx":
		if !hasAVX {
			return fmt.Errorf("tensor: backend avx unavailable: host has no OS-enabled AVX")
		}
		useAVX512, useAVX, useNEON = false, true, false
	case "avx512":
		if !hasAVX512 {
			return fmt.Errorf("tensor: backend avx512 unavailable: host has no OS-enabled AVX-512F")
		}
		useAVX512, useAVX, useNEON = true, true, false
	case "neon":
		if !hasNEON {
			return fmt.Errorf("tensor: backend neon unavailable: host is not arm64")
		}
		useAVX512, useAVX, useNEON = false, false, true
	default:
		return fmt.Errorf("tensor: unknown backend %q (valid: avx512, avx, neon, generic)", name)
	}
	return nil
}

// Backends lists the kernel tiers reachable from the active dispatch
// state, widest first, always ending in "generic" — the fallback chain
// the dispatcher walks. Under a TENSOR_BACKEND override the chain
// starts at the forced tier, so a forced-generic run reports (and
// tests/benchmarks cover) exactly the generic kernels.
func Backends() []string {
	var out []string
	if useAVX512 {
		out = append(out, "avx512")
	}
	if useAVX {
		out = append(out, "avx")
	}
	if useNEON {
		out = append(out, "neon")
	}
	return append(out, "generic")
}

// kernelMR and kernelNR are the register-tile dimensions of the active
// GEMM backend: the avx512 micro-kernel computes 8×8 output tiles, all
// others 4×4. Tile geometry cannot change results — every output
// element's accumulation chain is the same whatever tile it lands in —
// so backends with different geometry stay bit-identical.
func kernelMR() int {
	if useAVX512 {
		return 8
	}
	return 4
}

func kernelNR() int {
	if useAVX512 {
		return 8
	}
	return 4
}
