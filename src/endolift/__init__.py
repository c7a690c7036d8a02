"""endolift: exact desk-scale arithmetic for deformation loci of
supersingular p-divisible groups.

The package re-exports nothing: import each name from its module, e.g.
`from endolift.lengths import quotient_length`, so that importing one
engine loads only what that engine needs.

Submodules:

* errors     — the typed failures, all subclasses of EndoliftError
* witt       — quadratic Witt scalars mod p^N as integer pairs, the one arithmetic
* series     — window-truncated two-variable series, base series f and g
* windows    — quasi-endomorphism pairs, lifting recursions
* lengths    — chain-ring normal forms, quotient lengths, annihilators
* inventory  — component bookkeeping, thresholds, closed-form totals
* lattices   — module lattices: sublattices, superlattices, filtration lifts
* cli        — the `endolift` command
"""
