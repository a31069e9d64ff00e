package policy

import (
	"fmt"
	"strings"

	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/ml"
)

// DowngradeNames lists the Table 1 policy acronyms accepted by
// NewDowngrade.
var DowngradeNames = []string{"lru", "lfu", "lrfu", "life", "lfuf", "exd", "xgb"}

// UpgradeNames lists the Table 2 policy acronyms accepted by NewUpgrade.
var UpgradeNames = []string{"osa", "lrfu", "exd", "xgb"}

// NewDowngrade constructs a downgrade policy by acronym ("none" or ""
// yields nil, disabling downgrades).
func NewDowngrade(name string, ctx *core.Context, learnerCfg ml.LearnerConfig) (core.DowngradePolicy, error) {
	switch strings.ToLower(name) {
	case "", "none":
		return nil, nil
	case "lru":
		return NewLRU(ctx), nil
	case "lfu":
		return NewLFU(ctx), nil
	case "lrfu":
		return NewLRFUDown(ctx, DefaultLRFUHalfLife), nil
	case "life":
		return NewLIFE(ctx, DefaultLIFEWindow), nil
	case "lfuf", "lfu-f":
		return NewLFUF(ctx, DefaultLIFEWindow), nil
	case "exd":
		return NewEXDDown(ctx, DefaultEXDAlpha), nil
	case "xgb":
		return NewXGBDown(ctx, learnerCfg), nil
	}
	return nil, fmt.Errorf("policy: unknown downgrade policy %q (want one of %v)", name, DowngradeNames)
}

// NewUpgrade constructs an upgrade policy by acronym ("none" or "" yields
// nil, disabling upgrades).
func NewUpgrade(name string, ctx *core.Context, learnerCfg ml.LearnerConfig) (core.UpgradePolicy, error) {
	switch strings.ToLower(name) {
	case "", "none":
		return nil, nil
	case "osa":
		return NewOSA(ctx), nil
	case "lrfu":
		return NewLRFUUp(ctx, DefaultLRFUHalfLife, DefaultLRFUUpgradeThreshold), nil
	case "exd":
		return NewEXDUp(ctx, DefaultEXDAlpha), nil
	case "xgb":
		return NewXGBUp(ctx, learnerCfg), nil
	}
	return nil, fmt.Errorf("policy: unknown upgrade policy %q (want one of %v)", name, UpgradeNames)
}

// NewManager builds the managed system every harness runs: a policy context
// over fs with core.DefaultConfig, the named downgrade/upgrade pair (see
// NewDowngrade and NewUpgrade; an empty name disables that side), and the
// replication manager listening on fs. The manager is returned unstarted.
func NewManager(fs *dfs.FileSystem, down, up string, learnerCfg ml.LearnerConfig) (*core.Manager, error) {
	ctx := core.NewContext(fs, core.DefaultConfig())
	d, err := NewDowngrade(down, ctx, learnerCfg)
	if err != nil {
		return nil, err
	}
	u, err := NewUpgrade(up, ctx, learnerCfg)
	if err != nil {
		return nil, err
	}
	return core.NewManager(ctx, d, u), nil
}
