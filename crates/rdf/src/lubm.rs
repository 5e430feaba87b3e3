//! Deterministic LUBM-like synthetic data generator.
//!
//! The paper evaluates on LUBM10k (~1 billion triples on a 7-node Hadoop
//! cluster). Regenerating a billion triples is neither feasible nor necessary
//! to reproduce the paper's claims, which are about *relative* plan quality.
//! This module generates a scaled-down dataset with the same schema and join
//! structure as LUBM: universities contain departments, departments employ
//! professors and lecturers, students are members of departments, take
//! courses, and have advisors; professors teach courses and hold degrees from
//! universities. All properties referenced by the paper's 14 evaluation
//! queries (Appendix A) are produced, so every query has a non-empty answer.
//!
//! The generator is fully deterministic given its [`LubmScale`] and seed.
//! Each university is generated from its **own RNG stream** (seeded from the
//! scale seed and the university number), which makes a university the unit
//! of parallel generation: [`LubmGenerator::university_triples_into`] can
//! run for different universities on different worker threads, and
//! concatenating the per-university outputs in university order reproduces
//! [`LubmGenerator::generate`] bit for bit (see
//! `cliquesquare_mapreduce::load::BulkLoader::load_lubm`).

use crate::graph::Graph;
use crate::term::{vocab, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Scale parameters of the LUBM-like generator.
///
/// The defaults produce on the order of 50–60 thousand triples, which keeps
/// test runtimes short. Benchmarks use larger scales via
/// [`LubmScale::with_universities`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LubmScale {
    /// Number of universities.
    pub universities: usize,
    /// Departments per university.
    pub departments_per_university: usize,
    /// Full professors per department.
    pub full_professors: usize,
    /// Assistant professors per department.
    pub assistant_professors: usize,
    /// Lecturers per department.
    pub lecturers: usize,
    /// Undergraduate students per department.
    pub undergraduate_students: usize,
    /// Graduate students per department.
    pub graduate_students: usize,
    /// Undergraduate courses per department.
    pub courses: usize,
    /// Graduate courses per department.
    pub graduate_courses: usize,
    /// Courses taken by each undergraduate student.
    pub courses_per_undergrad: usize,
    /// Graduate courses taken by each graduate student.
    pub courses_per_grad: usize,
    /// Random seed controlling all probabilistic choices.
    pub seed: u64,
}

impl Default for LubmScale {
    fn default() -> Self {
        Self {
            universities: 3,
            departments_per_university: 4,
            full_professors: 4,
            assistant_professors: 4,
            lecturers: 3,
            undergraduate_students: 40,
            graduate_students: 12,
            courses: 10,
            graduate_courses: 6,
            courses_per_undergrad: 2,
            courses_per_grad: 2,
            seed: 0x5eed_cafe,
        }
    }
}

impl LubmScale {
    /// A small scale suitable for unit tests (a few thousand triples).
    pub fn tiny() -> Self {
        Self {
            universities: 1,
            departments_per_university: 2,
            full_professors: 2,
            assistant_professors: 2,
            lecturers: 1,
            undergraduate_students: 8,
            graduate_students: 4,
            courses: 4,
            graduate_courses: 2,
            courses_per_undergrad: 2,
            courses_per_grad: 1,
            seed: 7,
        }
    }

    /// Returns the default scale with the given number of universities.
    pub fn with_universities(universities: usize) -> Self {
        Self {
            universities,
            ..Self::default()
        }
    }

    /// Parses a user-supplied scale option (the `--scale` flag): a positive
    /// number of universities at the default scale. `"0"`, negative numbers
    /// and anything unparseable are rejected with a message naming the
    /// offending value.
    pub fn try_from_option(value: &str) -> Result<Self, String> {
        let value = value.trim();
        match value.parse::<usize>() {
            Ok(universities) if universities > 0 => Ok(Self::with_universities(universities)),
            _ => Err(format!(
                "universities must be a positive integer (got \"{value}\")"
            )),
        }
    }

    /// A rough upper bound on the number of triples the scale will generate.
    pub fn estimated_triples(&self) -> usize {
        let depts = self.universities * self.departments_per_university;
        let per_dept = 3
            + (self.full_professors + self.assistant_professors + self.lecturers) * 7
            + self.undergraduate_students * (4 + self.courses_per_undergrad)
            + self.graduate_students * (6 + self.courses_per_grad)
            + (self.courses + self.graduate_courses) * 2;
        self.universities * 2 + depts * per_dept
    }
}

/// Deterministic LUBM-like data generator.
#[derive(Debug, Clone)]
pub struct LubmGenerator {
    scale: LubmScale,
}

impl LubmGenerator {
    /// Creates a generator with the given scale.
    pub fn new(scale: LubmScale) -> Self {
        Self { scale }
    }

    /// Returns the generator's scale.
    pub fn scale(&self) -> &LubmScale {
        &self.scale
    }

    /// Generates the dataset into a fresh [`Graph`].
    pub fn generate(&self) -> Graph {
        let mut graph = Graph::new();
        self.generate_into(&mut graph);
        graph
    }

    /// Generates the dataset into an existing graph, streaming each
    /// university's triples straight into it.
    pub fn generate_into(&self, graph: &mut Graph) {
        for u in 0..self.scale.universities {
            self.university_triples_into(u, graph);
        }
    }

    /// The RNG seed of university `u`: a splitmix64-style mix of the scale
    /// seed and the university number, so every university draws from an
    /// independent, platform-stable stream.
    fn university_seed(&self, u: usize) -> u64 {
        let mut z = self
            .scale
            .seed
            .wrapping_add((u as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Writes all triples of university `u` (types, departments, faculty,
    /// students, courses) into `out`, in deterministic emission order. `out`
    /// is any sink of term triples: a `Vec`, a [`Graph`], or the bulk
    /// loader's encoding shard, which encodes each triple as it arrives.
    ///
    /// This is the unit of parallel generation: universities draw from
    /// independent RNG streams, so any subset can be generated on any worker
    /// and the concatenation over `u = 0..universities` equals
    /// [`generate`](Self::generate).
    pub fn university_triples_into(&self, u: usize, out: &mut impl Extend<(Term, Term, Term)>) {
        let mut rng = StdRng::seed_from_u64(self.university_seed(u));
        let s = &self.scale;
        let mut emit = |s: Term, p: Term, o: Term| out.extend([(s, p, o)]);

        let rdf_type = Term::iri(vocab::RDF_TYPE);
        let p_works_for = Term::iri(vocab::ub("worksFor"));
        let p_member_of = Term::iri(vocab::ub("memberOf"));
        let p_sub_org = Term::iri(vocab::ub("subOrganizationOf"));
        let p_takes = Term::iri(vocab::ub("takesCourse"));
        let p_teacher = Term::iri(vocab::ub("teacherOf"));
        let p_advisor = Term::iri(vocab::ub("advisor"));
        let p_doctoral = Term::iri(vocab::ub("doctoralDegreeFrom"));
        let p_undergrad_from = Term::iri(vocab::ub("undergraduateDegreeFrom"));
        let p_email = Term::iri(vocab::ub("emailAddress"));
        let p_name = Term::iri(vocab::ub("name"));

        let c_university = Term::iri(vocab::ub("University"));
        let c_department = Term::iri(vocab::ub("Department"));
        let c_full_prof = Term::iri(vocab::ub("FullProfessor"));
        let c_assistant_prof = Term::iri(vocab::ub("AssistantProfessor"));
        let c_lecturer = Term::iri(vocab::ub("Lecturer"));
        let c_undergrad = Term::iri(vocab::ub("UndergraduateStudent"));
        let c_grad = Term::iri(vocab::ub("GraduateStudent"));
        let c_course = Term::iri(vocab::ub("Course"));
        let c_grad_course = Term::iri(vocab::ub("GraduateCourse"));

        // University IRIs are constructed on demand from a drawn index, so
        // generating one university stays O(its own triples) instead of
        // allocating the full U-element IRI table per call.
        let university_iri = |i: usize| Term::iri(format!("http://www.University{i}.edu"));

        let univ = &university_iri(u);
        emit(univ.clone(), rdf_type.clone(), c_university.clone());
        emit(
            univ.clone(),
            p_name.clone(),
            Term::literal(format!("University{u}")),
        );

        for d in 0..s.departments_per_university {
            let dept = Term::iri(format!("http://www.Department{d}.University{u}.edu"));
            emit(dept.clone(), rdf_type.clone(), c_department.clone());
            emit(dept.clone(), p_sub_org.clone(), univ.clone());
            emit(
                dept.clone(),
                p_name.clone(),
                Term::literal(format!("Department{d}")),
            );

            // Courses.
            let mut courses = Vec::with_capacity(s.courses);
            for c in 0..s.courses {
                let course = Term::iri(format!(
                    "http://www.Department{d}.University{u}.edu/Course{c}"
                ));
                emit(course.clone(), rdf_type.clone(), c_course.clone());
                emit(
                    course.clone(),
                    p_name.clone(),
                    Term::literal(format!("Course{c}")),
                );
                courses.push(course);
            }
            let mut grad_courses = Vec::with_capacity(s.graduate_courses);
            for c in 0..s.graduate_courses {
                let course = Term::iri(format!(
                    "http://www.Department{d}.University{u}.edu/GraduateCourse{c}"
                ));
                emit(course.clone(), rdf_type.clone(), c_grad_course.clone());
                emit(
                    course.clone(),
                    p_name.clone(),
                    Term::literal(format!("GraduateCourse{c}")),
                );
                grad_courses.push(course);
            }

            // Faculty: full professors, assistant professors, lecturers.
            let mut faculty = Vec::new();
            let mut full_professors = Vec::new();
            let faculty_groups: [(usize, &Term, &str); 3] = [
                (s.full_professors, &c_full_prof, "FullProfessor"),
                (
                    s.assistant_professors,
                    &c_assistant_prof,
                    "AssistantProfessor",
                ),
                (s.lecturers, &c_lecturer, "Lecturer"),
            ];
            for (count, class, label) in faculty_groups {
                for i in 0..count {
                    let person = Term::iri(format!(
                        "http://www.Department{d}.University{u}.edu/{label}{i}"
                    ));
                    emit(person.clone(), rdf_type.clone(), class.clone());
                    emit(person.clone(), p_works_for.clone(), dept.clone());
                    emit(
                        person.clone(),
                        p_name.clone(),
                        Term::literal(format!("{label}{i}")),
                    );
                    emit(
                        person.clone(),
                        p_email.clone(),
                        Term::literal(format!("{label}{i}@Department{d}.University{u}.edu")),
                    );
                    let degree_univ = university_iri(rng.gen_range(0..s.universities));
                    emit(person.clone(), p_doctoral.clone(), degree_univ);
                    // Each faculty member teaches one undergraduate and one
                    // graduate course (round-robin over the department's
                    // courses), so teacherOf joins are well populated.
                    if !courses.is_empty() {
                        let course = &courses[i % courses.len()];
                        emit(person.clone(), p_teacher.clone(), course.clone());
                    }
                    if !grad_courses.is_empty() {
                        let course = &grad_courses[i % grad_courses.len()];
                        emit(person.clone(), p_teacher.clone(), course.clone());
                    }
                    if *class == c_full_prof {
                        full_professors.push(person.clone());
                    }
                    faculty.push(person);
                }
            }

            // Undergraduate students.
            for i in 0..s.undergraduate_students {
                let student = Term::iri(format!(
                    "http://www.Department{d}.University{u}.edu/UndergraduateStudent{i}"
                ));
                emit(student.clone(), rdf_type.clone(), c_undergrad.clone());
                emit(student.clone(), p_member_of.clone(), dept.clone());
                emit(
                    student.clone(),
                    p_name.clone(),
                    Term::literal(format!("UndergraduateStudent{i}")),
                );
                if !full_professors.is_empty() {
                    let advisor = &full_professors[rng.gen_range(0..full_professors.len())];
                    emit(student.clone(), p_advisor.clone(), advisor.clone());
                }
                for k in 0..s.courses_per_undergrad.min(courses.len()) {
                    let start = rng.gen_range(0..courses.len());
                    let course = &courses[(start + k) % courses.len()];
                    emit(student.clone(), p_takes.clone(), course.clone());
                }
            }

            // Graduate students.
            for i in 0..s.graduate_students {
                let student = Term::iri(format!(
                    "http://www.Department{d}.University{u}.edu/GraduateStudent{i}"
                ));
                emit(student.clone(), rdf_type.clone(), c_grad.clone());
                emit(student.clone(), p_member_of.clone(), dept.clone());
                emit(
                    student.clone(),
                    p_email.clone(),
                    Term::literal(format!(
                        "GraduateStudent{i}@Department{d}.University{u}.edu"
                    )),
                );
                // A fraction of graduate students hold their undergraduate
                // degree from the university of their current department,
                // which is what makes Q8/Q9 selective joins non-empty.
                let from = if rng.gen_bool(0.3) {
                    univ.clone()
                } else {
                    university_iri(rng.gen_range(0..s.universities))
                };
                emit(student.clone(), p_undergrad_from.clone(), from);
                if !faculty.is_empty() {
                    let advisor = &faculty[rng.gen_range(0..faculty.len())];
                    emit(student.clone(), p_advisor.clone(), advisor.clone());
                }
                for k in 0..s.courses_per_grad.min(grad_courses.len()) {
                    let start = rng.gen_range(0..grad_courses.len());
                    let course = &grad_courses[(start + k) % grad_courses.len()];
                    emit(student.clone(), p_takes.clone(), course.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::vocab;

    #[test]
    fn scale_options_parse_strictly() {
        assert_eq!(
            LubmScale::try_from_option("12"),
            Ok(LubmScale::with_universities(12))
        );
        assert_eq!(
            LubmScale::try_from_option(" 3 "),
            Ok(LubmScale::with_universities(3))
        );
        for bad in ["0", "abc", "-1"] {
            let error = LubmScale::try_from_option(bad).expect_err(bad);
            assert!(error.contains(&format!("\"{bad}\"")), "{error}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g1 = LubmGenerator::new(LubmScale::tiny()).generate();
        let g2 = LubmGenerator::new(LubmScale::tiny()).generate();
        assert_eq!(g1.len(), g2.len());
        assert_eq!(g1.triples(), g2.triples());
    }

    #[test]
    fn university_chunks_concatenate_to_generate() {
        let generator = LubmGenerator::new(LubmScale::default());
        let mut chunked = Graph::new();
        for u in 0..generator.scale().universities {
            let mut triples = Vec::new();
            generator.university_triples_into(u, &mut triples);
            for (s, p, o) in triples {
                chunked.insert_terms(s, p, o);
            }
        }
        assert_eq!(chunked, generator.generate());
    }

    #[test]
    fn universities_draw_from_distinct_streams() {
        let generator = LubmGenerator::new(LubmScale::with_universities(2));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        generator.university_triples_into(0, &mut a);
        generator.university_triples_into(1, &mut b);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut scale = LubmScale::tiny();
        let g1 = LubmGenerator::new(scale).generate();
        scale.seed = 8;
        let g2 = LubmGenerator::new(scale).generate();
        assert_eq!(g1.len(), g2.len());
        assert_ne!(g1.triples(), g2.triples());
    }

    #[test]
    fn all_query_properties_are_present() {
        let g = LubmGenerator::new(LubmScale::default()).generate();
        for prop in [
            "worksFor",
            "memberOf",
            "subOrganizationOf",
            "takesCourse",
            "teacherOf",
            "advisor",
            "doctoralDegreeFrom",
            "undergraduateDegreeFrom",
            "emailAddress",
            "name",
        ] {
            let term = Term::iri(vocab::ub(prop));
            assert!(
                g.lookup(&term).is_some(),
                "property {prop} missing from generated data"
            );
        }
        assert!(g.lookup(&Term::iri(vocab::RDF_TYPE)).is_some());
    }

    #[test]
    fn all_query_classes_are_present() {
        let g = LubmGenerator::new(LubmScale::default()).generate();
        let rdf_type = g.lookup(&Term::iri(vocab::RDF_TYPE)).unwrap();
        for class in [
            "University",
            "Department",
            "FullProfessor",
            "AssistantProfessor",
            "Lecturer",
            "UndergraduateStudent",
            "GraduateStudent",
            "Course",
            "GraduateCourse",
        ] {
            let class_id = g
                .lookup(&Term::iri(vocab::ub(class)))
                .unwrap_or_else(|| panic!("class {class} missing"));
            let instances = g
                .match_pattern(None, Some(rdf_type), Some(class_id))
                .count();
            assert!(instances > 0, "class {class} has no instances");
        }
    }

    #[test]
    fn scale_estimate_is_close() {
        let scale = LubmScale::default();
        let g = LubmGenerator::new(scale).generate();
        let estimate = scale.estimated_triples();
        let actual = g.len();
        assert!(
            actual <= estimate && actual * 2 >= estimate,
            "estimate {estimate} too far from actual {actual}"
        );
    }

    #[test]
    fn university_constants_match_query_constants() {
        let g = LubmGenerator::new(LubmScale::default()).generate();
        assert!(g.lookup(&Term::iri("http://www.University0.edu")).is_some());
        assert!(g.lookup(&Term::literal("University0")).is_some());
    }

    #[test]
    fn larger_scale_generates_more_triples() {
        let small = LubmGenerator::new(LubmScale::with_universities(1)).generate();
        let big = LubmGenerator::new(LubmScale::with_universities(3)).generate();
        assert!(big.len() > 2 * small.len());
    }
}
