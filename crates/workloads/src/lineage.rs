//! Random positive-DNF lineage generation with controlled shape.

use banzhaf_boolean::{Dnf, Var};
use rand::Rng;

/// Shape parameters of a random lineage.
#[derive(Clone, Copy, Debug)]
pub struct LineageShape {
    /// Number of distinct variables to draw clauses from.
    pub num_vars: usize,
    /// Number of clauses.
    pub num_clauses: usize,
    /// Minimum clause width (inclusive).
    pub min_width: usize,
    /// Maximum clause width (inclusive).
    pub max_width: usize,
    /// Zipf-like skew of variable popularity: 0.0 = uniform, larger values
    /// concentrate occurrences on low-index variables (which is what join
    /// lineage over skewed foreign keys looks like, and what makes Shannon
    /// expansion productive).
    pub skew: f64,
}

impl LineageShape {
    /// A reasonable default shape: 40 variables, 25 clauses of width 2–4,
    /// mild skew.
    pub fn default_shape() -> Self {
        LineageShape { num_vars: 40, num_clauses: 25, min_width: 2, max_width: 4, skew: 0.5 }
    }
}

/// Generator of random positive DNF lineages.
#[derive(Clone, Debug)]
pub struct LineageGenerator {
    shape: LineageShape,
}

impl LineageGenerator {
    /// Creates a generator for the given shape.
    pub fn new(shape: LineageShape) -> Self {
        assert!(shape.num_vars >= 1, "need at least one variable");
        assert!(shape.min_width >= 1 && shape.min_width <= shape.max_width);
        assert!(shape.max_width <= shape.num_vars, "clause width exceeds variable count");
        LineageGenerator { shape }
    }

    /// The shape parameters.
    pub fn shape(&self) -> &LineageShape {
        &self.shape
    }

    /// Draws one variable according to the popularity skew.
    fn draw_var<R: Rng>(&self, rng: &mut R) -> Var {
        let n = self.shape.num_vars as f64;
        if self.shape.skew <= 0.0 {
            return Var(rng.gen_range(0..self.shape.num_vars as u32));
        }
        // Inverse-transform sampling of a power-law-ish distribution: index
        // proportional to u^(1+skew) concentrates mass on small indices.
        let u: f64 = rng.gen_range(0.0..1.0);
        let idx = (u.powf(1.0 + self.shape.skew) * n) as u32;
        Var(idx.min(self.shape.num_vars as u32 - 1))
    }

    /// Generates one random positive DNF with the configured shape.
    ///
    /// The universe is exactly the set of variables that occur in the clauses
    /// (as in real lineage, where every variable comes from a used fact), so
    /// the realized variable count can be smaller than `num_vars`.
    pub fn generate<R: Rng>(&self, rng: &mut R) -> Dnf {
        let mut clauses: Vec<Vec<Var>> = Vec::with_capacity(self.shape.num_clauses);
        for _ in 0..self.shape.num_clauses {
            let width = rng.gen_range(self.shape.min_width..=self.shape.max_width);
            let mut clause = Vec::with_capacity(width);
            // Rejection-sample distinct variables for the clause.
            let mut guard = 0;
            while clause.len() < width && guard < width * 50 {
                let v = self.draw_var(rng);
                if !clause.contains(&v) {
                    clause.push(v);
                }
                guard += 1;
            }
            clauses.push(clause);
        }
        Dnf::from_clauses(clauses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_lineage_respects_shape() {
        let shape =
            LineageShape { num_vars: 30, num_clauses: 12, min_width: 2, max_width: 3, skew: 0.3 };
        let generator = LineageGenerator::new(shape);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let phi = generator.generate(&mut rng);
            assert!(phi.num_clauses() <= 12);
            assert!(phi.num_vars() <= 30);
            for clause in phi.clauses() {
                assert!(clause.len() >= 2 && clause.len() <= 3);
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let generator = LineageGenerator::new(LineageShape::default_shape());
        let a = generator.generate(&mut StdRng::seed_from_u64(99));
        let b = generator.generate(&mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
    }

    #[test]
    fn skew_concentrates_occurrences() {
        let mut uniform_shape = LineageShape::default_shape();
        uniform_shape.skew = 0.0;
        uniform_shape.num_clauses = 200;
        let mut skewed_shape = uniform_shape;
        skewed_shape.skew = 2.0;
        let mut rng = StdRng::seed_from_u64(5);
        let uniform = LineageGenerator::new(uniform_shape).generate(&mut rng);
        let skewed = LineageGenerator::new(skewed_shape).generate(&mut rng);
        let max_occurrence =
            |phi: &Dnf| phi.occurrence_counts().values().copied().max().unwrap_or(0);
        assert!(max_occurrence(&skewed) > max_occurrence(&uniform));
    }

    #[test]
    #[should_panic(expected = "clause width exceeds")]
    fn invalid_shape_panics() {
        LineageGenerator::new(LineageShape {
            num_vars: 2,
            num_clauses: 1,
            min_width: 1,
            max_width: 5,
            skew: 0.0,
        });
    }
}
