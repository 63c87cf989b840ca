//! Resolver fixture: a method called on a receiver other than `self` is
//! another value's method, even when the workspace defines that name only
//! once — here, as the caller itself or the function enclosing the
//! calling closure. Only `Walk::down` calls itself.

pub struct Trace;

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.events().eq(other.events())
    }
}

pub struct Obs;

impl Obs {
    pub fn span(&self, key: u32) -> Option<u32> {
        self.prof.as_ref().map(|prof| prof.span(key))
    }
}

pub struct Walk;

impl Walk {
    pub fn down(&self, n: u32) -> u32 {
        if n == 0 {
            return 0;
        }
        self.down(n - 1)
    }
}
