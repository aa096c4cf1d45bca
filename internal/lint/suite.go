package lint

// Suite returns the full convlint analyzer set in reporting order.
// The boundary, determinism, unitcheck, lockcheck, hotpath, hotdefer,
// lifetime, ctxflow and chanproto analyzers read their scope from the
// repo's lint.config.
func Suite(cfg *Config) []*Analyzer {
	return []*Analyzer{
		NewBoundary(cfg),
		NewDeterminism(cfg),
		NewUnitCheck(cfg),
		NewLockCheck(cfg),
		NewHotPath(cfg),
		NewHotDefer(cfg),
		NewLifetime(cfg),
		NewCtxflow(cfg),
		NewChanproto(cfg),
		FloatCmp,
		DroppedErr,
		GoLeak,
	}
}
