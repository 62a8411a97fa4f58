// Package core implements troupes and replicated procedure call — the
// paper's primary contribution (§3.5, §4).
//
// A troupe is a set of replicas of a module executing on machines with
// independent failure modes. Troupe members do not communicate among
// themselves and are unaware of one another's existence; each behaves
// exactly as if it had no replicas (§3.5.1). Control moves between
// troupes by replicated procedure calls whose semantics are
// exactly-once execution at all troupe members (§4.1).
//
// The general many-to-many call factors into two subalgorithms
// (§4.3.3): each client troupe member performs a one-to-many call to
// the entire server troupe (client.go), and each server troupe member
// handles a many-to-one call from the entire client troupe
// (server.go). Nowhere does a troupe member hold information about the
// other members of its own troupe.
package core

import (
	"errors"
	"fmt"

	"circus/internal/collate"
	"circus/internal/transport"
)

// TroupeID identifies a troupe uniquely in the internet (§6.2). It
// also serves as an incarnation number: the ID changes whenever troupe
// membership changes, and servers reject calls bearing a stale
// destination troupe ID, which is how obsolete cached bindings are
// detected (§6.2).
type TroupeID uint64

// ModuleAddr uniquely identifies an instance of a module: a process
// address plus a 16-bit module number selecting among the interfaces
// that process exports (§4.3).
type ModuleAddr struct {
	Addr   transport.Addr
	Module uint16
}

func (m ModuleAddr) String() string { return fmt.Sprintf("%v#%d", m.Addr, m.Module) }

// Troupe is the client-visible representation of a troupe: its ID and
// the module addresses of its members, as returned by the binding
// agent (§6.2).
type Troupe struct {
	ID      TroupeID
	Members []ModuleAddr
}

// Degree returns the degree of replication.
func (t Troupe) Degree() int { return len(t.Members) }

// Return message status codes. The paper's return header distinguishes
// normal from error results (§4.3); the runtime needs a few more kinds
// to signal binding staleness and dispatch failures.
const (
	statusOK         uint16 = 0
	statusAppError   uint16 = 1
	statusBadTroupe  uint16 = 2
	statusNoModule   uint16 = 3
	statusBadMessage uint16 = 4
)

// Errors surfaced to callers.
var (
	// ErrMemberDown reports that a server troupe member was presumed
	// crashed while a call to it was outstanding (§4.3.5): the one
	// member error a collator masks.
	ErrMemberDown = collate.ErrMemberDown
	// ErrTroupeDown reports that every member of the server troupe
	// failed; the replicated program as a whole has suffered a total
	// failure of that troupe (§3.5.1).
	ErrTroupeDown = errors.New("core: all troupe members failed")
	// ErrNoSuchModule reports a call to a module number the server
	// does not export; it signals stale binding case 2 of §6.1.
	ErrNoSuchModule = errors.New("core: no such module at server")
	// ErrNoSuchProc is returned by Dispatch implementations for an
	// unknown procedure number.
	ErrNoSuchProc = errors.New("core: no such procedure")
	// ErrClosed reports use of a closed Runtime.
	ErrClosed = errors.New("core: runtime closed")
)

// StaleBindingError reports that a server member rejected a call
// because the destination troupe ID did not match its current one: the
// client's cached binding is obsolete and it must rebind (§6.2).
type StaleBindingError struct {
	Member ModuleAddr
}

func (e *StaleBindingError) Error() string {
	return fmt.Sprintf("core: stale troupe binding at %v; rebind required", e.Member)
}

// AppError carries an application-level error raised by the remote
// procedure, externalized as a string as the stub compilers of §7.1
// pass exceptions. A collator counts it as the member's vote.
type AppError = collate.AppError

// callHeader is the body of a call message (§4.3): the thread ID of
// the caller (thread ID propagation, §3.4.1), the call path that
// identifies the replicated call (§4.3.2), the client troupe ID (so a
// server can learn how many call messages to expect), the destination
// troupe ID (incarnation check, §6.2), the module and procedure
// numbers, and the externalized parameters.
type callHeader struct {
	ThreadHost   uint32
	ThreadProc   uint32
	Path         []uint32
	ClientTroupe uint64
	DestTroupe   uint64
	Module       uint16
	Proc         uint16
	Args         []byte
}

// returnHeader is the body of a return message: a 16-bit status
// distinguishing normal from error results, plus the externalized
// results (§4.3).
type returnHeader struct {
	Status  uint16
	Payload []byte
}
