package xenbus

import (
	"fmt"

	"kite/internal/xenstore"
)

// TenantPath returns the xenstore subtree a driver domain publishes for
// one tenant guest it serves.
func TenantPath(backDom, frontDom DomID) string {
	return fmt.Sprintf("/local/domain/%d/%s/%d", backDom, xenstore.KeyTenantRoot, frontDom)
}

// TenantRoot returns the directory holding every tenant subtree of a
// driver domain.
func TenantRoot(backDom DomID) string {
	return fmt.Sprintf("/local/domain/%d/%s", backDom, xenstore.KeyTenantRoot)
}

// Tenant is the control-plane view of one guest a driver domain serves:
// how many VIF and VBD instances are live, and which fleet service lane
// carries its traffic (-1 when unassigned — dedicated-worker mode).
type Tenant struct {
	Dom  DomID
	Vifs int
	Vbds int
	Lane int
}

// TenantRegistry is a driver domain's dynamic attach/detach ledger — the
// piece of toolstack state that turns "a backend device" into "a
// multi-tenant service". Backend reports every VIF/VBD pairing and
// teardown; the registry maintains per-tenant counts in attach order (so
// walks are deterministic) and mirrors each tenant into its xenstore
// subtree (TenantPath) for external observers. A tenant whose last device
// detaches is removed from both the ledger and the store, so the registry
// always reflects exactly the live fleet.
//
//kite:deterministic
type TenantRegistry struct {
	bus  *Bus
	self DomID

	order []DomID // attach order of live tenants
	byDom map[DomID]*Tenant

	attaches uint64
	detaches uint64
}

// NewTenantRegistry creates the ledger for driver domain self.
func NewTenantRegistry(bus *Bus, self DomID) *TenantRegistry {
	return &TenantRegistry{bus: bus, self: self, byDom: make(map[DomID]*Tenant)}
}

// tenant returns the live record for dom, creating (and publishing) it on
// first attach.
func (r *TenantRegistry) tenant(dom DomID) *Tenant {
	if t := r.byDom[dom]; t != nil {
		return t
	}
	t := &Tenant{Dom: dom, Lane: -1}
	r.byDom[dom] = t
	r.order = append(r.order, dom)
	return t
}

// publish mirrors t into its xenstore subtree.
func (r *TenantRegistry) publish(t *Tenant) {
	st := r.bus.Store()
	p := TenantPath(r.self, t.Dom)
	st.Writef(p+"/"+xenstore.KeyTenantVifs, "%d", t.Vifs)
	st.Writef(p+"/"+xenstore.KeyTenantVbds, "%d", t.Vbds)
	st.Writef(p+"/"+xenstore.KeyTenantLane, "%d", t.Lane)
	st.Write(p+"/"+xenstore.KeyTenantState, xenstore.TenantStateAttached)
}

// drop removes a tenant whose last device detached: ledger slot and
// xenstore subtree both go away.
func (r *TenantRegistry) drop(dom DomID) {
	delete(r.byDom, dom)
	for i, d := range r.order {
		if d == dom {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	_ = r.bus.Store().Remove(TenantPath(r.self, dom))
}

// Attach records one pairing of a typ device (xenstore.DevVif or DevVbd)
// for dom; lane is the fleet lane carrying it (-1 for none).
func (r *TenantRegistry) Attach(dom DomID, typ string, lane int) {
	t := r.tenant(dom)
	*t.devices(typ)++
	if lane >= 0 {
		t.Lane = lane
	}
	r.attaches++
	r.publish(t)
}

// Detach records one teardown of a typ device for dom.
func (r *TenantRegistry) Detach(dom DomID, typ string) {
	t := r.byDom[dom]
	if t == nil {
		return
	}
	*t.devices(typ)--
	r.detaches++
	if t.Vifs <= 0 && t.Vbds <= 0 {
		r.drop(dom)
		return
	}
	r.publish(t)
}

// devices returns the tenant's live-instance count for device type typ.
func (t *Tenant) devices(typ string) *int {
	if typ == xenstore.DevVif {
		return &t.Vifs
	}
	return &t.Vbds
}

// Tenants returns the live tenants in attach order (copies — callers
// cannot corrupt the ledger).
func (r *TenantRegistry) Tenants() []Tenant {
	out := make([]Tenant, len(r.order))
	for i, dom := range r.order {
		out[i] = *r.byDom[dom]
	}
	return out
}

// Len returns the number of live tenants.
func (r *TenantRegistry) Len() int { return len(r.order) }

// Churn reports lifetime (attaches, detaches) across all device types.
func (r *TenantRegistry) Churn() (attaches, detaches uint64) {
	return r.attaches, r.detaches
}
