package dfs

import "errors"

// MoveReason says why a replica move, copy or delete did not happen. It is
// the one vocabulary the movement mechanics here, the Replication Manager's
// cooldowns and the serving layer's executor report failures in: every error
// on a per-move path is a *MoveError carrying one, so a failure is counted
// under a label instead of formatted into a string (the movement-provenance
// record already names the file and the tiers).
type MoveReason uint8

const (
	// ReasonOversize: the request is larger than the destination tier's
	// whole burst budget, so no amount of waiting would admit it.
	ReasonOversize MoveReason = iota
	// ReasonBudget: the chosen destination device refused the reservation.
	ReasonBudget
	// ReasonBorrowRefused: the destination had no room and the capacity
	// ledger refused to grow the shard's quota for the move.
	ReasonBorrowRefused
	// ReasonBusy: the file is still being written or has replicas in
	// transition.
	ReasonBusy
	// ReasonNoCapacity: no device of the destination tier can hold a block.
	ReasonNoCapacity
	// ReasonNoReplica: a block has no (source) replica on the tier asked for.
	ReasonNoReplica
	// ReasonLastCopy: deleting the tier's replicas would lose a block's last
	// readable copy.
	ReasonLastCopy
	// ReasonSuperseded: the file was deleted after the request was made.
	ReasonSuperseded
	// ReasonBackend: the physical backend failed a block copy.
	ReasonBackend
	// ReasonNodeGone: a node holding one end of the transfer left the
	// cluster before the move committed.
	ReasonNodeGone
)

// MoveReasons lists every reason, for per-reason metric registration.
var MoveReasons = [...]MoveReason{
	ReasonOversize, ReasonBudget, ReasonBorrowRefused, ReasonBusy, ReasonNoCapacity,
	ReasonNoReplica, ReasonLastCopy, ReasonSuperseded, ReasonBackend, ReasonNodeGone,
}

// String is the reason's metric label.
func (r MoveReason) String() string {
	return [...]string{
		"oversize", "budget", "borrow_refused", "busy", "no_capacity",
		"no_replica", "last_copy", "superseded", "backend", "node_gone",
	}[r]
}

// MoveError is a movement failure with its reason. The package's sentinels
// (ErrBusy, ErrNoReplica, ...) are MoveErrors returned bare, so errors.Is
// matches them by identity; a failure with an outside cause (a backend I/O
// error, a device's refusal) wraps it.
type MoveError struct {
	Reason MoveReason
	msg    string
	cause  error
}

// NewMoveError builds a sentinel for a reason.
func NewMoveError(reason MoveReason, msg string) error {
	return &MoveError{Reason: reason, msg: msg}
}

// Error implements error.
func (e *MoveError) Error() string {
	if e.cause != nil {
		return e.msg + ": " + e.cause.Error()
	}
	return e.msg
}

// Unwrap returns the outside cause, if any.
func (e *MoveError) Unwrap() error { return e.cause }

// ReasonOf classifies a movement failure. An error that carries no reason
// came from outside the movement mechanics, which on a move path means the
// backend.
func ReasonOf(err error) MoveReason {
	me, ok := err.(*MoveError) // the bare sentinels, without errors.As's reflection
	if ok || errors.As(err, &me) {
		return me.Reason
	}
	return ReasonBackend
}

// Movement sentinels.
var (
	ErrBusy       = NewMoveError(ReasonBusy, "dfs: file has replicas in transition")
	ErrNoReplica  = NewMoveError(ReasonNoReplica, "dfs: no replica on requested tier")
	ErrLastCopy   = NewMoveError(ReasonLastCopy, "dfs: refusing to delete the last readable replica")
	ErrSuperseded = NewMoveError(ReasonSuperseded, "dfs: file was deleted")
	ErrNodeGone   = NewMoveError(ReasonNodeGone, "dfs: a node left the cluster mid-transfer")
	// ErrNoCapacity is returned when a block cannot be placed because no
	// candidate device has room.
	ErrNoCapacity = NewMoveError(ReasonNoCapacity, "dfs: no capacity for block placement")
	// ErrSameTier refuses a move whose source and destination coincide.
	ErrSameTier = errors.New("dfs: move source and destination tier are the same")
)
