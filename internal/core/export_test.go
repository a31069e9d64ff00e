package core

import (
	"octostore/internal/dfs"
	"octostore/internal/storage"
)

// EligibleFiles is EligibleFilesInto into a fresh slice.
func (c *Context) EligibleFiles(tier storage.Media) []*dfs.File {
	return c.EligibleFilesInto(nil, tier)
}
