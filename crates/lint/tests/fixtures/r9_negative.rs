//! R9 negative fixture: a coroutine root with shallow frames stays well
//! under the stack budget and produces a finite per-root bound, and a
//! wrapper that shares its name and method names with the std type inside
//! it is not mistaken for recursion.

pub fn spawn(pool: &Pool) {
    pool.run_batch(|| {
        step();
    });
}

fn step() {
    let scratch: [u8; 1024] = [0u8; 1024];
    consume(&scratch);
}

fn consume(_data: &[u8]) {}

pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        std::sync::Mutex::into_inner(self.0).unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}
