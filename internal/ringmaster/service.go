// Package ringmaster implements the binding agent for troupes (§6.3):
// a specialized name server that enables programs to import and export
// troupes by name, playing the role Grapevine plays in the Xerox PARC
// RPC system.
//
// The Ringmaster manipulates troupes (sets of module addresses),
// manages the troupe IDs required by the replicated procedure call
// algorithms, and is itself a module designed to be replicated: its
// state transitions are deterministic (troupe IDs are a deterministic
// function of name and incarnation), so a Ringmaster troupe stays
// consistent when driven through replicated procedure calls (§6.2).
//
// Changing a troupe's membership atomically changes its troupe ID and
// informs the members via the set_troupe_id procedure, which is how
// stale client bindings become detectable (§6.2): a member accepts a
// call only if it bears the member's current troupe ID.
package ringmaster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"circus/internal/core"
	"circus/internal/trace"
	"circus/internal/transport"
	"circus/internal/wire"
)

// Procedure numbers of the binding interface (Figure 6.1).
const (
	ProcRegisterTroupe     uint16 = 1
	ProcAddTroupeMember    uint16 = 2
	ProcLookupByName       uint16 = 3
	ProcLookupByID         uint16 = 4
	ProcRemoveTroupeMember uint16 = 5
	ProcRebind             uint16 = 6
	ProcListNames          uint16 = 7
	// ProcPublishMap/ProcFetchMap store and retrieve small epoch-
	// versioned configuration blobs keyed by service name — the mesh
	// layer's shard maps. Publish is compare-and-set on the epoch
	// (exactly current+1 is accepted), a deterministic transition, so a
	// replicated Ringmaster stays consistent and two racing rebalancing
	// coordinators cannot both win the same epoch.
	ProcPublishMap uint16 = 8
	ProcFetchMap   uint16 = 9
	// Procedure 10 is retired (it registered shard-map push
	// endpoints) and not reused: a call to it gets ErrNoSuchProc.
)

// WellKnownPort is the degenerate bootstrap binding of §6.3: the
// Ringmaster troupe is partially specified by a well-known port on
// each machine running an instance.
const WellKnownPort uint16 = 911

// Wire representations of the binding interface types.
type wireAddr struct {
	Host   uint32
	Port   uint16
	Module uint16
}

func toWire(m core.ModuleAddr) wireAddr {
	return wireAddr{Host: m.Addr.Host, Port: m.Addr.Port, Module: m.Module}
}

func fromWire(w wireAddr) core.ModuleAddr {
	return core.ModuleAddr{
		Addr:   transport.Addr{Host: w.Host, Port: w.Port},
		Module: w.Module,
	}
}

type nameMembersArgs struct {
	Name    string
	Members []wireAddr
}

type nameMemberArgs struct {
	Name   string
	Member wireAddr
}

type troupeReply struct {
	ID      uint64
	Members []wireAddr
}

type rebindArgs struct {
	Name    string
	StaleID uint64
}

type publishMapArgs struct {
	Service string
	Epoch   uint64
	Data    []byte
}

type mapReply struct {
	Epoch uint64
	Data  []byte
}

// entry is the registration record for one troupe name.
type entry struct {
	id          uint64
	incarnation uint32
	members     []core.ModuleAddr
}

// Service is the Ringmaster module. Export it on a core.Runtime (one
// per Ringmaster troupe member); all state transitions are
// deterministic functions of the operation sequence, as troupe
// consistency requires (§3.5.2), and it keeps no soft state: GetState
// carries everything a member holds.
type Service struct {
	mu      sync.Mutex
	entries map[string]*entry
	maps    map[string]mapReply // service -> latest published map

	// InformMembers, when true (the default), makes membership
	// changes call set_troupe_id at every member of the affected
	// troupe (§6.2, Figure 6.2).
	InformMembers bool

	// Tracer, when set (by Node.ServeRingmaster), records binding
	// operations: registrations, membership changes, lookups.
	Tracer *trace.Local
}

// NewService returns an empty Ringmaster.
func NewService() *Service {
	return &Service{
		entries:       make(map[string]*entry),
		maps:          make(map[string]mapReply),
		InformMembers: true,
	}
}

var _ core.Module = (*Service)(nil)
var _ core.StateProvider = (*Service)(nil)

// troupeID derives the deterministic, permanently unique troupe ID for
// an incarnation of a name (§6.2 requires IDs to change with every
// membership change; determinism keeps Ringmaster replicas
// consistent).
func troupeID(name string, incarnation uint32) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%d", name, incarnation)
	id := h.Sum64()
	if id == 0 {
		id = 1 // zero is the "no troupe" sentinel
	}
	return id
}

// Dispatch implements core.Module.
func (s *Service) Dispatch(call *core.ServerCall, proc uint16, args []byte) ([]byte, error) {
	switch proc {
	case ProcRegisterTroupe:
		var a nameMembersArgs
		if err := wire.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		return s.registerTroupe(call, a)
	case ProcAddTroupeMember:
		var a nameMemberArgs
		if err := wire.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		return s.addMember(call, a)
	case ProcRemoveTroupeMember:
		var a nameMemberArgs
		if err := wire.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		return s.removeMember(call, a)
	case ProcLookupByName:
		var name string
		if err := wire.Unmarshal(args, &name); err != nil {
			return nil, err
		}
		return s.lookupByName(name)
	case ProcLookupByID:
		var id uint64
		if err := wire.Unmarshal(args, &id); err != nil {
			return nil, err
		}
		return s.lookupByID(id)
	case ProcRebind:
		var a rebindArgs
		if err := wire.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		// The stale binding is only a hint (§6.1); the current
		// binding is looked up and returned.
		return s.lookupByName(a.Name)
	case ProcListNames:
		return s.listNames()
	case ProcPublishMap:
		var a publishMapArgs
		if err := wire.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		return s.publishMap(a)
	case ProcFetchMap:
		var service string
		if err := wire.Unmarshal(args, &service); err != nil {
			return nil, err
		}
		return s.fetchMap(service)
	default:
		return nil, core.ErrNoSuchProc
	}
}

// registerTroupe registers a whole troupe under a name, as a third
// party such as the configuration manager does (§6.2). Re-registering
// a name replaces its membership and advances the incarnation.
func (s *Service) registerTroupe(call *core.ServerCall, a nameMembersArgs) ([]byte, error) {
	members := make([]core.ModuleAddr, len(a.Members))
	for i, w := range a.Members {
		members[i] = fromWire(w)
	}
	s.mu.Lock()
	e, ok := s.entries[a.Name]
	if !ok {
		e = &entry{}
		s.entries[a.Name] = e
	}
	e.incarnation++
	e.id = troupeID(a.Name, e.incarnation)
	e.members = members
	id := e.id
	s.mu.Unlock()

	if s.Tracer.Enabled() {
		s.Tracer.Emit(trace.Event{Kind: trace.KindRegister,
			Troupe: id, N: len(members), Detail: a.Name})
	}
	if err := s.informMembers(call, id, members); err != nil {
		return nil, err
	}
	return wire.Marshal(id)
}

// addMember implements Figure 6.2: the new member joins, the troupe ID
// changes, and every member (old and new) learns the new ID.
func (s *Service) addMember(call *core.ServerCall, a nameMemberArgs) ([]byte, error) {
	m := fromWire(a.Member)
	s.mu.Lock()
	e, ok := s.entries[a.Name]
	if !ok {
		e = &entry{}
		s.entries[a.Name] = e
	}
	present := false
	for _, x := range e.members {
		if x == m {
			present = true
			break
		}
	}
	if !present {
		e.members = append(e.members, m)
	}
	e.incarnation++
	e.id = troupeID(a.Name, e.incarnation)
	id := e.id
	members := append([]core.ModuleAddr(nil), e.members...)
	s.mu.Unlock()

	if s.Tracer.Enabled() {
		s.Tracer.Emit(trace.Event{Kind: trace.KindAddMember,
			Peer: m.Addr, Module: m.Module,
			Troupe: id, N: len(members), Detail: a.Name})
	}
	if err := s.informMembers(call, id, members); err != nil {
		return nil, err
	}
	return wire.Marshal(id)
}

// removeMember deletes a member (reconfiguration after a crash, §6.4)
// and advances the incarnation.
func (s *Service) removeMember(call *core.ServerCall, a nameMemberArgs) ([]byte, error) {
	m := fromWire(a.Member)
	s.mu.Lock()
	e, ok := s.entries[a.Name]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("ringmaster: no troupe named %q", a.Name)
	}
	kept := e.members[:0]
	for _, x := range e.members {
		if x != m {
			kept = append(kept, x)
		}
	}
	e.members = kept
	e.incarnation++
	e.id = troupeID(a.Name, e.incarnation)
	id := e.id
	members := append([]core.ModuleAddr(nil), e.members...)
	s.mu.Unlock()

	if s.Tracer.Enabled() {
		s.Tracer.Emit(trace.Event{Kind: trace.KindRemoveMember,
			Peer: m.Addr, Module: m.Module,
			Troupe: id, N: len(members), Detail: a.Name})
	}
	if err := s.informMembers(call, id, members); err != nil {
		return nil, err
	}
	return wire.Marshal(id)
}

// informMembers runs set_troupe_id at every member of the affected
// troupe, expressed as a replicated procedure call so that a
// replicated Ringmaster's members are collated into one logical call
// (§6.2).
func (s *Service) informMembers(call *core.ServerCall, id uint64, members []core.ModuleAddr) error {
	if !s.InformMembers || len(members) == 0 || call == nil {
		return nil
	}
	arg, err := wire.Marshal(id)
	if err != nil {
		return err
	}
	// Destination troupe ID zero: the members' current IDs are stale
	// by construction, so the incarnation check must be skipped for
	// this administrative call.
	dest := core.Troupe{Members: members}
	if _, err := call.Call(dest, core.ProcSetTroupeID, arg, core.CallOptions{}); err != nil {
		return fmt.Errorf("ringmaster: informing troupe members: %w", err)
	}
	return nil
}

func (s *Service) lookupByName(name string) ([]byte, error) {
	s.mu.Lock()
	e, ok := s.entries[name]
	if !ok || len(e.members) == 0 {
		s.mu.Unlock()
		if s.Tracer.Enabled() {
			s.Tracer.Emit(trace.Event{Kind: trace.KindLookup,
				Detail: name, Err: "not found"})
		}
		return nil, fmt.Errorf("ringmaster: no troupe named %q", name)
	}
	rep := troupeReply{ID: e.id}
	for _, m := range e.members {
		rep.Members = append(rep.Members, toWire(m))
	}
	s.mu.Unlock()
	if s.Tracer.Enabled() {
		s.Tracer.Emit(trace.Event{Kind: trace.KindLookup,
			Troupe: rep.ID, N: len(rep.Members), Detail: name})
	}
	return wire.Marshal(rep)
}

func (s *Service) lookupByID(id uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.id == id {
			rep := troupeReply{ID: e.id}
			for _, m := range e.members {
				rep.Members = append(rep.Members, toWire(m))
			}
			return wire.Marshal(rep)
		}
	}
	return nil, fmt.Errorf("ringmaster: no troupe with ID %#x", id)
}

// listNames enumerates registered names in sorted order (sorted so
// that replicated Ringmaster members answer identically), the
// enumeration the garbage collector needs (§6.1).
func (s *Service) listNames() ([]byte, error) {
	s.mu.Lock()
	names := make([]string, 0, len(s.entries))
	for n, e := range s.entries {
		if len(e.members) > 0 {
			names = append(names, n)
		}
	}
	s.mu.Unlock()
	sort.Strings(names)
	return wire.Marshal(names)
}

// publishMap stores a configuration blob for a service iff the offered
// epoch is exactly one past the stored one (zero when none): first-
// writer-wins compare-and-set, so concurrent coordinators serialize.
func (s *Service) publishMap(a publishMapArgs) ([]byte, error) {
	s.mu.Lock()
	cur := s.maps[a.Service].Epoch
	if a.Epoch != cur+1 {
		s.mu.Unlock()
		return nil, fmt.Errorf("ringmaster: stale map publish for %q: have epoch %d, offered %d",
			a.Service, cur, a.Epoch)
	}
	data := append([]byte(nil), a.Data...)
	s.maps[a.Service] = mapReply{Epoch: a.Epoch, Data: data}
	s.mu.Unlock()
	if s.Tracer.Enabled() {
		s.Tracer.Emit(trace.Event{Kind: trace.KindRegister,
			Troupe: a.Epoch, N: len(a.Data), Detail: "map:" + a.Service})
	}
	return wire.Marshal(a.Epoch)
}

// fetchMap returns the latest published map for a service.
func (s *Service) fetchMap(service string) ([]byte, error) {
	s.mu.Lock()
	rep, ok := s.maps[service]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("ringmaster: no map published for %q", service)
	}
	return wire.Marshal(rep)
}

// stateRecord is the externalized form of one entry, used for state
// transfer when a new Ringmaster member joins (§6.4.1).
type stateRecord struct {
	Name        string
	ID          uint64
	Incarnation uint32
	Members     []wireAddr
}

// mapStateRecord externalizes one published map for state transfer.
type mapStateRecord struct {
	Service string
	Epoch   uint64
	Data    []byte
}

// stateImage is the full externalized Ringmaster state: registrations
// plus published maps, both sorted for replica determinism.
type stateImage struct {
	Troupes []stateRecord
	Maps    []mapStateRecord
}

// GetState implements core.StateProvider.
func (s *Service) GetState() ([]byte, error) {
	s.mu.Lock()
	img := stateImage{Troupes: make([]stateRecord, 0, len(s.entries))}
	for name, e := range s.entries {
		r := stateRecord{Name: name, ID: e.id, Incarnation: e.incarnation}
		for _, m := range e.members {
			r.Members = append(r.Members, toWire(m))
		}
		img.Troupes = append(img.Troupes, r)
	}
	for service, m := range s.maps {
		img.Maps = append(img.Maps, mapStateRecord{Service: service, Epoch: m.Epoch, Data: m.Data})
	}
	s.mu.Unlock()
	sort.Slice(img.Troupes, func(i, j int) bool { return img.Troupes[i].Name < img.Troupes[j].Name })
	sort.Slice(img.Maps, func(i, j int) bool { return img.Maps[i].Service < img.Maps[j].Service })
	return wire.Marshal(img)
}

// SetState implements core.StateProvider.
func (s *Service) SetState(b []byte) error {
	var img stateImage
	if err := wire.Unmarshal(b, &img); err != nil {
		return err
	}
	entries := make(map[string]*entry, len(img.Troupes))
	for _, r := range img.Troupes {
		e := &entry{id: r.ID, incarnation: r.Incarnation}
		for _, w := range r.Members {
			e.members = append(e.members, fromWire(w))
		}
		entries[r.Name] = e
	}
	maps := make(map[string]mapReply, len(img.Maps))
	for _, m := range img.Maps {
		maps[m.Service] = mapReply{Epoch: m.Epoch, Data: append([]byte(nil), m.Data...)}
	}
	s.mu.Lock()
	s.entries = entries
	s.maps = maps
	s.mu.Unlock()
	return nil
}
