//! Constraint-satisfaction problem representation.
//!
//! A [`Problem`] is a set of variables with finite domains plus unary and
//! binary constraints. This is the classical binary-CSP formulation on which
//! backtracking search (Bitner & Reingold) and the AC-3 arc-consistency
//! algorithm (Mackworth) operate — the two methods Algorithm 1 of the FeReX
//! paper uses for encoding feasibility detection.

use std::fmt;
use std::rc::Rc;

/// Shared binary-constraint predicate.
type Predicate<V> = Rc<dyn Fn(&V, &V) -> bool>;

/// Identifier of a variable within a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The index of this variable in the problem's variable order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A binary constraint between two variables.
pub struct BinaryConstraint<V> {
    /// First endpoint.
    pub a: VarId,
    /// Second endpoint.
    pub b: VarId,
    name: String,
    pred: Predicate<V>,
}

impl<V> Clone for BinaryConstraint<V> {
    fn clone(&self) -> Self {
        BinaryConstraint {
            a: self.a,
            b: self.b,
            name: self.name.clone(),
            pred: Rc::clone(&self.pred),
        }
    }
}

impl<V> fmt::Debug for BinaryConstraint<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BinaryConstraint")
            .field("a", &self.a)
            .field("b", &self.b)
            .field("name", &self.name)
            .finish()
    }
}

impl<V> BinaryConstraint<V> {
    /// Human-readable constraint label (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the constraint for `(value of a, value of b)`.
    pub fn check(&self, va: &V, vb: &V) -> bool {
        (self.pred)(va, vb)
    }
}

struct VarInfo<V> {
    name: String,
    domain: Vec<V>,
}

impl<V: fmt::Debug> fmt::Debug for VarInfo<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VarInfo").field("name", &self.name).field("domain", &self.domain).finish()
    }
}

/// A finite-domain binary CSP.
///
/// # Examples
///
/// ```
/// use ferex_csp::{Problem, Solver};
///
/// // Two variables over {0,1,2} that must differ.
/// let mut p = Problem::new();
/// let x = p.add_variable("x", vec![0, 1, 2]);
/// let y = p.add_variable("y", vec![0, 1, 2]);
/// p.add_binary(x, y, "x != y", |a, b| a != b);
/// let outcome = Solver::new().solve(&p);
/// let sol = outcome.solution.expect("satisfiable");
/// assert_ne!(sol[x.index()], sol[y.index()]);
/// ```
pub struct Problem<V> {
    vars: Vec<VarInfo<V>>,
    constraints: Vec<BinaryConstraint<V>>,
    /// For each variable, the indices of constraints touching it.
    incident: Vec<Vec<usize>>,
}

impl<V: fmt::Debug> fmt::Debug for Problem<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Problem")
            .field("vars", &self.vars)
            .field("constraints", &self.constraints)
            .finish()
    }
}

impl<V> Default for Problem<V> {
    fn default() -> Self {
        Problem::new()
    }
}

impl<V> Problem<V> {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Problem { vars: Vec::new(), constraints: Vec::new(), incident: Vec::new() }
    }

    /// Adds a variable with the given domain and returns its id.
    pub fn add_variable(&mut self, name: impl Into<String>, domain: Vec<V>) -> VarId {
        self.vars.push(VarInfo { name: name.into(), domain });
        self.incident.push(Vec::new());
        VarId(self.vars.len() - 1)
    }

    /// Prunes a variable's domain in place with a unary predicate.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this problem.
    pub fn restrict(&mut self, var: VarId, pred: impl Fn(&V) -> bool) {
        self.vars[var.0].domain.retain(|v| pred(v));
    }

    /// Adds a binary constraint `pred(value_of_a, value_of_b)`.
    ///
    /// # Panics
    ///
    /// Panics if either variable does not belong to this problem or if
    /// `a == b` (use [`Problem::restrict`] for unary constraints).
    pub fn add_binary(
        &mut self,
        a: VarId,
        b: VarId,
        name: impl Into<String>,
        pred: impl Fn(&V, &V) -> bool + 'static,
    ) {
        assert!(a.0 < self.vars.len() && b.0 < self.vars.len(), "constraint on unknown variable");
        assert_ne!(a, b, "binary constraint endpoints must differ");
        let idx = self.constraints.len();
        self.constraints.push(BinaryConstraint { a, b, name: name.into(), pred: Rc::new(pred) });
        self.incident[a.0].push(idx);
        self.incident[b.0].push(idx);
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of binary constraints.
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The `VarId` at a raw index, when in range — O(1) and panic-free,
    /// for solver internals that index variables positionally.
    pub fn var_at(&self, index: usize) -> Option<VarId> {
        (index < self.vars.len()).then_some(VarId(index))
    }

    /// The name of a variable.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.0].name
    }

    /// The current domain of a variable.
    pub fn domain(&self, var: VarId) -> &[V] {
        &self.vars[var.0].domain
    }

    /// All binary constraints.
    pub fn constraints(&self) -> &[BinaryConstraint<V>] {
        &self.constraints
    }

    /// Indices into [`Problem::constraints`] of constraints touching `var`.
    pub fn incident(&self, var: VarId) -> &[usize] {
        &self.incident[var.0]
    }

    /// A deep copy of all domains, as mutated by the solver algorithms.
    pub fn domains(&self) -> Vec<Vec<V>>
    where
        V: Clone,
    {
        self.vars.iter().map(|v| v.domain.clone()).collect()
    }

    /// Checks a complete assignment (one value per variable, in variable
    /// order) against every constraint.
    pub fn is_satisfied(&self, assignment: &[V]) -> bool {
        assignment.len() == self.vars.len()
            && self.constraints.iter().all(|c| c.check(&assignment[c.a.0], &assignment[c.b.0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut p: Problem<i32> = Problem::new();
        let x = p.add_variable("x", vec![1, 2, 3]);
        let y = p.add_variable("y", vec![1, 2]);
        p.add_binary(x, y, "lt", |a, b| a < b);
        assert_eq!(p.n_vars(), 2);
        assert_eq!(p.n_constraints(), 1);
        assert_eq!(p.var_name(x), "x");
        assert_eq!(p.domain(y), &[1, 2]);
        assert_eq!(p.incident(x), &[0]);
        assert_eq!(p.constraints()[0].name(), "lt");
        assert_eq!(format!("{x}"), "x0");
    }

    #[test]
    fn restrict_prunes_domain() {
        let mut p: Problem<i32> = Problem::new();
        let x = p.add_variable("x", (0..10).collect());
        p.restrict(x, |v| v % 2 == 0);
        assert_eq!(p.domain(x), &[0, 2, 4, 6, 8]);
    }

    #[test]
    fn is_satisfied_checks_all_constraints() {
        let mut p: Problem<i32> = Problem::new();
        let x = p.add_variable("x", vec![1, 2]);
        let y = p.add_variable("y", vec![1, 2]);
        p.add_binary(x, y, "lt", |a, b| a < b);
        assert!(p.is_satisfied(&[1, 2]));
        assert!(!p.is_satisfied(&[2, 1]));
        assert!(!p.is_satisfied(&[1])); // wrong arity
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_loop_rejected() {
        let mut p: Problem<i32> = Problem::new();
        let x = p.add_variable("x", vec![1]);
        p.add_binary(x, x, "bad", |_, _| true);
    }
}
