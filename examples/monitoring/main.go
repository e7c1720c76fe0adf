// Monitoring: Rock's continuous operation mode (paper §3: "the users may
// opt to employ Rock to monitor changes to D, and incrementally detect and
// fix errors in response to updates", and §4.1's data-quality assessment).
// A pipeline cleans a table once, then processes live update batches
// incrementally, with quality templates watching the dimensions. Run with:
//
//	go run ./examples/monitoring
package main

import (
	"fmt"
	"log"

	"github.com/rockclean/rock/rock"
)

func main() {
	db := rock.NewDB()
	orders := rock.NewRel(rock.MustSchema("Order",
		rock.Attribute{Name: "sku", Type: rock.TString},
		rock.Attribute{Name: "warehouse", Type: rock.TString},
		rock.Attribute{Name: "weight", Type: rock.TFloat},
	))
	orders.Insert("o1", rock.S("SKU-100"), rock.S("WH-North"), rock.F(1.2))
	orders.Insert("o2", rock.S("SKU-100"), rock.S("WH-North"), rock.F(1.2))
	orders.Insert("o3", rock.S("SKU-200"), rock.S("WH-South"), rock.F(4.5))
	db.Add(orders)

	p := rock.NewPipeline(db)
	p.TrainCorrelationModels()
	// Every unit of a SKU ships from the same warehouse and weighs the same.
	p.MustAddRule("Order(t) ^ Order(s) ^ t.sku = s.sku -> t.warehouse = s.warehouse")
	p.MustAddRule("Order(t) ^ Order(s) ^ t.sku = s.sku ^ null(t.weight) -> t.weight = s.weight")

	// Quality templates (§4.1): watch nulls, out-of-range weights and
	// malformed SKUs.
	p.CheckNulls("Order", "weight")
	p.CheckRange("Order", "weight", 0.01, 100)
	p.CheckPattern("Order", "sku", `^SKU-\d+$`)

	if _, err := p.Clean(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("initial clean done; entering monitoring mode")

	// Update batch 1: a new order with a wrong warehouse.
	d1 := p.NewDelta()
	d1.Insert("Order", "o4", rock.S("SKU-100"), rock.S("WH-WRONG"), rock.F(1.2))
	errs, err := d1.DetectIncremental()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch 1: %d incremental errors detected\n", len(errs))
	fixes, err := d1.CleanIncremental()
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range fixes {
		fmt.Printf("  fixed %s: %v -> %v\n", f.Cell, f.Old, f.New)
	}

	// Update batch 2: a new order with a missing weight.
	d2 := p.NewDelta()
	d2.Insert("Order", "o5", rock.S("SKU-200"), rock.S("WH-South"), rock.Null(rock.TFloat))
	findings, before := p.Monitor()
	fixes, err = d2.CleanIncremental()
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range fixes {
		fmt.Printf("batch 2: imputed %s = %v\n", f.Cell, f.New)
	}
	_, after := p.Monitor()
	fmt.Printf("completeness %0.3f -> %0.3f across the batch\n", before.Completeness, after.Completeness)
	for _, f := range findings {
		fmt.Printf("  watched: %s on %s flagged %d tuples\n", f.Template, f.Rel, len(f.TIDs))
	}
}
