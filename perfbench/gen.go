package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The cold-admit module generator. Each program is a seeded OmniC
// module built from the constructs that drive the admission layers:
// several functions with loops over global arrays, switch statements,
// direct calls and calls through a function-pointer table. Programs
// terminate by construction — loops have constant trip counts and a
// function only calls functions generated before it — and each
// function's dynamic cost is estimated while it is generated, so a
// program's whole run stays under genStepCap interpreter steps.
//
// Every program also defines the global saltWord. Nothing reads it;
// the benchmark rewrites it per job so that each upload is a distinct
// module (a new content hash, hence new audit, cache and translation
// keys) with the same code and the same reference output.

const (
	saltWord   = "bench_salt"
	genStepCap = 400_000 // interpreter steps one generated program may take
	funcCost   = 6_000   // estimated steps one generated function may take
)

// genParams bounds one program's size: nfuncs functions of about
// stmts statements each.
type genParams struct {
	nfuncs int
	stmts  int
}

// genSizeRange gives the parameters of the smallest and largest pool
// programs. The smallest is a few statements, next to the trivial
// module; the largest compiles to about the OMW size of li (~27 KB).
var genSizeRange = [2]genParams{{nfuncs: 1, stmts: 2}, {nfuncs: 18, stmts: 6}}

// poolParams spreads n programs evenly over genSizeRange: program i
// gets the i-th of n equal steps (a stratified, not random, size), so
// the pool's total size does not move with the seed.
func poolParams(i, n int) genParams {
	lo, hi := genSizeRange[0], genSizeRange[1]
	f := 0.0
	if n > 1 {
		f = float64(i) / float64(n-1)
	}
	return genParams{
		nfuncs: lo.nfuncs + int(f*float64(hi.nfuncs-lo.nfuncs)+0.5),
		stmts:  lo.stmts + int(f*float64(hi.stmts-lo.stmts)+0.5),
	}
}

type generator struct {
	r     *rand.Rand
	b     strings.Builder
	cost  []int // estimated dynamic steps per generated function
	table []int // functions in the pointer table (leaves only)
}

// genProgram returns the OmniC source of one program.
func genProgram(seed int64, p genParams) string {
	g := &generator{r: rand.New(rand.NewSource(seed))}
	nglob := 2 + g.r.Intn(3)
	fmt.Fprintf(&g.b, "int %s = 1;\n", saltWord)
	for k := 0; k < nglob; k++ {
		fmt.Fprintf(&g.b, "int g%d[16];\n", k)
	}
	// Leaves first: the pointer table may only hold functions that call
	// nothing, so an indirect call can never start a cycle.
	nleaf := 1 + p.nfuncs/3
	for f := 0; f < p.nfuncs; f++ {
		g.function(f, f < nleaf, nglob, p.stmts)
		if f < nleaf && len(g.table) < 4 {
			g.table = append(g.table, f)
		}
		if f == nleaf-1 {
			g.emitTable()
		}
	}
	g.main(p.nfuncs, nglob)
	return g.b.String()
}

func (g *generator) emitTable() {
	for len(g.table) < 4 { // power-of-two table; pad with the first leaf
		g.table = append(g.table, g.table[0])
	}
	names := make([]string, len(g.table))
	for i, f := range g.table {
		names[i] = fmt.Sprintf("f%d", f)
	}
	fmt.Fprintf(&g.b, "int (*ftab[4])(int, int) = {%s};\n", strings.Join(names, ", "))
}

func (g *generator) function(f int, leaf bool, nglob, stmts int) {
	fmt.Fprintf(&g.b, "int f%d(int a, int b) {\n\tint i, x = a + %d, y = b ^ %d;\n", f, g.r.Intn(100), g.r.Intn(100))
	cost := 8
	n := stmts/2 + g.r.Intn(stmts+1)
	for s := 0; s < n; s++ {
		cost += g.stmt(f, leaf, nglob, funcCost-cost)
	}
	fmt.Fprintf(&g.b, "\treturn x ^ (y << 1);\n}\n")
	g.cost = append(g.cost, cost)
}

// stmt emits one statement of function f and returns its estimated
// dynamic cost, never more than budget (a plain assignment when the
// budget is nearly spent).
func (g *generator) stmt(f int, leaf bool, nglob, budget int) int {
	gl := fmt.Sprintf("g%d", g.r.Intn(nglob))
	kind := g.r.Intn(6)
	if leaf && kind >= 4 {
		kind = g.r.Intn(4)
	}
	switch kind {
	case 1: // loop over a global array
		trip := 4 + g.r.Intn(13)
		if c := trip * 8; c < budget {
			fmt.Fprintf(&g.b, "\tfor (i = 0; i < %d; i++) {\n\t\t%s[(i + x) & 15] += %s;\n\t\tx += %s[i & 15] %s i;\n\t}\n",
				trip, gl, g.expr(), gl, g.op())
			return c
		}
	case 2: // switch
		fmt.Fprintf(&g.b, "\tswitch (x & 7) {\n")
		for c := 0; c < 3+g.r.Intn(4); c++ {
			fmt.Fprintf(&g.b, "\tcase %d: y = %s; break;\n", c, g.expr())
		}
		fmt.Fprintf(&g.b, "\tdefault: y += %d;\n\t}\n", g.r.Intn(50))
		return 6
	case 3: // branch
		fmt.Fprintf(&g.b, "\tif (x > y) x = %s; else y = %s;\n", g.expr(), g.expr())
		return 5
	case 4: // direct call to an earlier function
		c := g.r.Intn(f)
		if g.cost[c]+4 < budget {
			fmt.Fprintf(&g.b, "\tx += f%d(y, %s);\n", c, g.expr())
			return g.cost[c] + 4
		}
	case 5: // indirect call through the table
		worst := 0
		for _, t := range g.table {
			worst = max(worst, g.cost[t])
		}
		if worst+6 < budget {
			fmt.Fprintf(&g.b, "\ty ^= ftab[x & 3](x, %s);\n", g.expr())
			return worst + 6
		}
	}
	fmt.Fprintf(&g.b, "\tx = %s;\n", g.expr())
	return 3
}

func (g *generator) op() string {
	return []string{"+", "-", "^", "|", "&", "*"}[g.r.Intn(6)]
}

func (g *generator) expr() string {
	terms := []string{"x", "y", "a", "b", fmt.Sprint(g.r.Intn(1000))}
	t := func() string { return terms[g.r.Intn(len(terms))] }
	switch g.r.Intn(3) {
	case 0:
		return t() + " " + g.op() + " " + t()
	case 1:
		return "(" + t() + " " + g.op() + " " + t() + ") >> " + fmt.Sprint(1+g.r.Intn(4))
	default:
		return t() + " " + g.op() + " " + fmt.Sprint(1+g.r.Intn(255))
	}
}

// main calls every function once, folds the results into a checksum,
// prints it and returns its low seven bits as the exit code.
func (g *generator) main(nfuncs, nglob int) {
	fmt.Fprintf(&g.b, "int main(void) {\n\tint s = %d;\n", g.r.Intn(1000))
	for f := 0; f < nfuncs; f++ {
		fmt.Fprintf(&g.b, "\ts = s * 31 + f%d(s & 255, %d);\n", f, g.r.Intn(1000))
	}
	for k := 0; k < nglob; k++ {
		fmt.Fprintf(&g.b, "\ts += g%d[%d];\n", k, g.r.Intn(16))
	}
	fmt.Fprintf(&g.b, "\t_print_int(s);\n\t_putc(10);\n\treturn s & 127;\n}\n")
}
