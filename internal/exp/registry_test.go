package exp

import (
	"reflect"
	"strings"
	"testing"
)

// registryOrder is the published -list order; reordering or renaming entries
// breaks scripts and is caught here.
var registryOrder = []string{
	"fig1", "fig2", "fig4", "fig7", "fig8", "fig9", "fig10", "table7",
	"fig11", "fig12", "fig13", "fig14", "fig15", "sec23", "sec3impl",
	"sec616", "sec67", "sec72", "sec74", "ablate", "serverfam", "wrongpath",
}

func TestRegistryIDsUniqueAndStable(t *testing.T) {
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	if !reflect.DeepEqual(ids, registryOrder) {
		t.Fatalf("registry order changed:\n got %v\nwant %v", ids, registryOrder)
	}
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Fatalf("duplicate registry id %q", e.ID)
		}
		seen[e.ID] = true
		if e.ID == "all" {
			t.Fatal(`registry must not define "all": it is the expansion keyword`)
		}
		if e.Desc == "" || e.Run == nil {
			t.Fatalf("entry %q missing description or runner", e.ID)
		}
	}
}

func TestPlanUnknownIDErrors(t *testing.T) {
	entries, err := Plan("nosuch")
	if err == nil || entries != nil {
		t.Fatalf("Plan(nosuch) = %v, %v; want nil, error", entries, err)
	}
	if !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("error does not name the bad id: %v", err)
	}
}

func TestPlanSingle(t *testing.T) {
	entries, err := Plan("fig7")
	if err != nil || len(entries) != 1 || entries[0].ID != "fig7" {
		t.Fatalf("Plan(fig7) = %v, %v", entries, err)
	}
}

func TestPlanAllExpandsEachEntryOnce(t *testing.T) {
	entries, err := Plan("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(Registry) {
		t.Fatalf("Plan(all) has %d entries, registry %d", len(entries), len(Registry))
	}
	for i, e := range entries {
		if e.ID != Registry[i].ID {
			t.Fatalf("Plan(all)[%d] = %q, want %q (registry order)", i, e.ID, Registry[i].ID)
		}
	}
	// Plan returns a copy: callers mutating the slice must not corrupt the
	// registry.
	entries[0] = RegistryEntry{ID: "mutated"}
	if Registry[0].ID == "mutated" {
		t.Fatal("Plan(all) aliases the registry backing array")
	}
}
