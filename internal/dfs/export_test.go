package dfs

// UnderReplicatedBlocks exposes the file system's count of under-replicated
// blocks to the external tests.
func (fs *FileSystem) UnderReplicatedBlocks() int { return fs.underBlocks }
