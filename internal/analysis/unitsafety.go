package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// UnitSafety flags magic unit-conversion literals — 1e9, 1e6, 2.8e9,
// 1_000_000_000 and friends — used directly in arithmetic. Every derived
// rate the golden artifacts pin (GB/s bandwidths, MOPS, ns↔cycle
// conversions) must flow through internal/units, where the conversion
// constants are named, audited, and shared; a literal 1e9 is ambiguous
// between GHz, GB, and ns/s, which is exactly how silent unit bugs ship.
type UnitSafety struct{}

func (*UnitSafety) Name() string { return "unitsafety" }
func (*UnitSafety) Doc() string {
	return "flag magic ns/Hz/byte conversion literals in arithmetic that bypass internal/units"
}

// unitsPackage is the one package allowed to spell conversion factors as
// literals: it is where they get their names.
const unitsPackage = "internal/units"

// magicFloat matches power-of-ten scientific literals used as unit
// conversion factors: a mantissa times e3/e6/e9/e12 (1e9, 2.8e9, 0.1e9).
var magicFloat = regexp.MustCompile(`^\d+(\.\d+)?[eE]\+?(3|6|9|12)$`)

// magicInts are the spelled-out decimal forms of the same factors.
var magicInts = map[string]bool{
	"1000":          true,
	"1000000":       true,
	"1000000000":    true,
	"1000000000000": true,
}

func (a *UnitSafety) Check(prog *Program, pkg *Package) []Diagnostic {
	if pathHasSuffix(pkg.Path, unitsPackage) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.MUL && bin.Op != token.QUO) {
				return true
			}
			for _, operand := range []ast.Expr{bin.X, bin.Y} {
				lit, ok := ast.Unparen(operand).(*ast.BasicLit)
				if !ok || !a.isMagic(lit) {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:      prog.Fset.Position(lit.Pos()),
					Analyzer: a.Name(),
					Message:  fmt.Sprintf("magic conversion literal %s in arithmetic; name it through internal/units (units.GB, units.GHz, units.NsPerSecond, ...)", lit.Value)})
			}
			return true
		})
	}
	return diags
}

// isMagic reports whether a literal spells a power-of-ten conversion
// factor.
func (a *UnitSafety) isMagic(lit *ast.BasicLit) bool {
	text := strings.ReplaceAll(lit.Value, "_", "")
	switch lit.Kind {
	case token.FLOAT:
		return magicFloat.MatchString(text)
	case token.INT:
		return magicInts[text]
	}
	return false
}
