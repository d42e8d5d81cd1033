//! Process categorization (§3.1, "Selective Data Collection").
//!
//! > Processes are divided according to where their executables originate
//! > from, into the categories system, user, and additionally Python.

/// System directories, verbatim from the paper.
pub const SYSTEM_DIRS: &[&str] = &[
    "/etc/", "/dev/", "/usr/", "/bin/", "/boot/", "/lib/", "/opt/", "/sbin/", "/sys/", "/proc/",
    "/var/",
];

/// Process category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Executable from a system directory.
    System,
    /// Executable from anywhere else (user-installed).
    User,
    /// A Python interpreter executing from a system directory. (A Python
    /// interpreter installed in a user directory counts as [`Category::User`].)
    Python,
}

impl Category {
    /// Categorize an executable path.
    pub fn of(exe_path: &str) -> Category {
        let in_system_dir = SYSTEM_DIRS.iter().any(|d| exe_path.starts_with(d));
        if !in_system_dir {
            return Category::User;
        }
        if is_python_interpreter_name(exe_path) {
            Category::Python
        } else {
            Category::System
        }
    }
}

/// Does the file name look like a CPython interpreter (`python`,
/// `python3`, `python3.11`, …)?
pub fn is_python_interpreter_name(path: &str) -> bool {
    let name = path.rsplit('/').next().unwrap_or(path);
    if let Some(rest) = name.strip_prefix("python") {
        rest.is_empty() || rest.chars().all(|c| c.is_ascii_digit() || c == '.')
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_directories_categorized() {
        assert_eq!(Category::of("/usr/bin/bash"), Category::System);
        assert_eq!(Category::of("/opt/cray/pe/bin/cc"), Category::System);
        assert_eq!(Category::of("/bin/sh"), Category::System);
        assert_eq!(Category::of("/var/run/tool"), Category::System);
    }

    #[test]
    fn user_directories_categorized() {
        assert_eq!(Category::of("/users/user_4/icon/bin/icon"), Category::User);
        assert_eq!(Category::of("/scratch/project/a.out"), Category::User);
        assert_eq!(Category::of("/projappl/amber/bin/pmemd"), Category::User);
        assert_eq!(Category::of("/home/me/tool"), Category::User);
    }

    #[test]
    fn python_requires_system_directory() {
        assert_eq!(Category::of("/usr/bin/python3.6"), Category::Python);
        assert_eq!(
            Category::of("/opt/python/3.11.4/bin/python3.11"),
            Category::Python
        );
        // The paper's explicit rule: user-dir interpreters are user procs.
        assert_eq!(
            Category::of("/users/user_2/miniconda3/envs/env0/bin/python3.11"),
            Category::User
        );
    }

    #[test]
    fn python_name_detection() {
        assert!(is_python_interpreter_name("/usr/bin/python"));
        assert!(is_python_interpreter_name("/usr/bin/python3"));
        assert!(is_python_interpreter_name("/x/python3.10"));
        assert!(!is_python_interpreter_name("/usr/bin/pythonista"));
        assert!(!is_python_interpreter_name("/usr/bin/bash"));
        assert!(!is_python_interpreter_name("/usr/bin/bpython-x"));
    }

    #[test]
    fn prefix_must_be_a_directory_component() {
        // "/usrx/tool" must not match "/usr/".
        assert_eq!(Category::of("/usrx/tool"), Category::User);
    }
}
